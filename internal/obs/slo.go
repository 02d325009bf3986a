package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// SLO monitoring for the serving stack: rolling-window availability and
// latency objectives with multi-window burn-rate alerting. The monitor
// keeps per-second buckets of (total, error, slow) request counts over the
// long window; Report aggregates a fast window (long/12, e.g. 5m for 1h)
// and the long window, computes each objective's burn rate — the fraction
// of error budget being spent, where burn 1.0 exactly exhausts the budget
// over the window — and classifies status with the classic multi-window
// rule: "page" when BOTH windows burn above PageBurn (a fast burn that has
// also been sustained), "warn" when both exceed WarnBurn.

// SLOConfig parameterizes an SLOMonitor. Zero values pick defaults.
type SLOConfig struct {
	// Availability is the fraction of requests that must not fail
	// (default 0.999).
	Availability float64
	// LatencyObjective is the fraction of requests that must finish under
	// LatencyThreshold (default 0.99).
	LatencyObjective float64
	// LatencyThreshold is the latency objective's cutoff (default 50ms).
	LatencyThreshold time.Duration
	// Window is the long observation window (default 1h; the fast window is
	// Window/12).
	Window time.Duration
	// PageBurn and WarnBurn are the burn-rate thresholds (defaults 14.4, 6).
	PageBurn float64
	WarnBurn float64
	// Now overrides the clock (tests; nil = time.Now).
	Now func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Availability == 0 {
		c.Availability = 0.999
	}
	if c.LatencyObjective == 0 {
		c.LatencyObjective = 0.99
	}
	if c.LatencyThreshold == 0 {
		c.LatencyThreshold = 50 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = time.Hour
	}
	if c.Window < 12*time.Second {
		c.Window = 12 * time.Second
	}
	if c.PageBurn == 0 {
		c.PageBurn = 14.4
	}
	if c.WarnBurn == 0 {
		c.WarnBurn = 6
	}
	return c
}

// sloSec packs one second's (total, errors, slow) counts into a single
// atomic word so the hot-path record is one add: total in bits 0–23,
// errors in 24–43, slow in 44–63. 16M requests and 1M errors per second
// per cell are far above anything one process serves.
type sloSec struct {
	sec    atomic.Int64 // absolute unix second this cell holds (ring tag)
	packed atomic.Uint64
}

const (
	sloErrShift  = 24
	sloSlowShift = 44
	sloTotalMask = 1<<sloErrShift - 1
	sloErrMask   = 1<<(sloSlowShift-sloErrShift) - 1
)

func (c *sloSec) counts() (total, errs, slow int64) {
	v := c.packed.Load()
	return int64(v & sloTotalMask), int64(v >> sloErrShift & sloErrMask), int64(v >> sloSlowShift)
}

// sloStripes is the number of rings an SLOMonitor spreads recordings over,
// so concurrent recorders in the same second mostly add to different
// cache lines.
const sloStripes = 4

// sloStripe picks the calling goroutine's ring by its stack address, which
// stays put for a goroutine (until its stack moves) and differs between
// live goroutines. Stacks are power-of-two sized and aligned, so the
// address is hashed before it is reduced.
func sloStripe() int64 {
	var x byte
	h := uint32(uintptr(unsafe.Pointer(&x))>>11) * 0x9e3779b9
	return int64(uint64(h) * sloStripes >> 32)
}

// SLOMonitor accumulates request outcomes into per-second ring buckets.
// Safe for concurrent use; the record path is atomic adds with a mutex
// taken only for the once-per-second cell rotation, so it sits on the
// serving hot path without becoming a contention point. A nil *SLOMonitor
// is a valid no-op.
type SLOMonitor struct {
	mu  sync.Mutex // serializes ring-cell rotation, not recording
	cfg SLOConfig
	// ring holds sloStripes rings of size cells back to back; size is a
	// power of two covering the window, and every cell carries its own
	// second tag, so aggregation simply sums all cells in range.
	ring []sloSec
	size int64
}

// NewSLOMonitor returns a monitor with the given objectives.
func NewSLOMonitor(cfg SLOConfig) *SLOMonitor {
	cfg = cfg.withDefaults()
	size := int64(1)
	for size < int64(cfg.Window/time.Second) {
		size <<= 1
	}
	return &SLOMonitor{cfg: cfg, ring: make([]sloSec, sloStripes*size), size: size}
}

// Config returns the monitor's resolved configuration.
func (m *SLOMonitor) Config() SLOConfig {
	if m == nil {
		return SLOConfig{}
	}
	return m.cfg
}

func (m *SLOMonitor) now() time.Time {
	if m.cfg.Now != nil {
		return m.cfg.Now()
	}
	return time.Now()
}

// Record counts one request outcome: failed marks an availability miss,
// lat is checked against the latency threshold. Nil-safe.
func (m *SLOMonitor) Record(failed bool, lat time.Duration) {
	if m == nil {
		return
	}
	m.RecordAt(failed, lat, m.now())
}

// RecordAt is Record with a caller-supplied clock reading, so hot paths
// that already timestamped the request add no clock read of their own.
func (m *SLOMonitor) RecordAt(failed bool, lat time.Duration, at time.Time) {
	if m == nil {
		return
	}
	sec := at.Unix()
	cell := &m.ring[sloStripe()*m.size+sec&(m.size-1)]
	if cell.sec.Load() != sec {
		// Rotate the cell under the mutex; double-check so exactly one
		// recorder resets it. A racing recorder that tagged the old second
		// can at worst misplace one count into a just-cleared cell — noise
		// far below the objectives this monitor watches.
		m.mu.Lock()
		if cell.sec.Load() != sec {
			cell.packed.Store(0)
			cell.sec.Store(sec)
		}
		m.mu.Unlock()
	}
	delta := uint64(1)
	if failed {
		delta |= 1 << sloErrShift
	}
	if lat >= m.cfg.LatencyThreshold {
		delta |= 1 << sloSlowShift
	}
	cell.packed.Add(delta)
}

// SLOWindowReport is one window's aggregation.
type SLOWindowReport struct {
	Window            string  `json:"window"`
	Total             int64   `json:"total"`
	Errors            int64   `json:"errors"`
	Slow              int64   `json:"slow"`
	Availability      float64 `json:"availability"`
	LatencyCompliance float64 `json:"latency_compliance"`
	AvailabilityBurn  float64 `json:"availability_burn"`
	LatencyBurn       float64 `json:"latency_burn"`
}

// SLOReport is the full monitor state served on /slo.
type SLOReport struct {
	AvailabilityObjective float64         `json:"objective_availability"`
	LatencyObjective      float64         `json:"objective_latency"`
	LatencyThresholdUS    int64           `json:"latency_threshold_us"`
	Fast                  SLOWindowReport `json:"fast"`
	Long                  SLOWindowReport `json:"long"`
	// Status is "ok", "warn" or "page" under the multi-window burn rule.
	Status string `json:"status"`
}

// MaxBurn returns the larger of the report's sustained (long-window) burn
// rates — the single number spannertop renders.
func (r SLOReport) MaxBurn() float64 {
	return math.Max(r.Long.AvailabilityBurn, r.Long.LatencyBurn)
}

func (m *SLOMonitor) aggregate(from, to int64) (total, errs, slow int64) {
	for i := range m.ring {
		c := &m.ring[i]
		if sec := c.sec.Load(); sec > from && sec <= to {
			t, e, s := c.counts()
			total += t
			errs += e
			slow += s
		}
	}
	return
}

func (m *SLOMonitor) window(d time.Duration, now int64) SLOWindowReport {
	total, errs, slow := m.aggregate(now-int64(d/time.Second), now)
	w := SLOWindowReport{
		Window:            d.String(),
		Total:             total,
		Errors:            errs,
		Slow:              slow,
		Availability:      1,
		LatencyCompliance: 1,
	}
	if total > 0 {
		w.Availability = 1 - float64(errs)/float64(total)
		w.LatencyCompliance = 1 - float64(slow)/float64(total)
		w.AvailabilityBurn = (1 - w.Availability) / (1 - m.cfg.Availability)
		w.LatencyBurn = (1 - w.LatencyCompliance) / (1 - m.cfg.LatencyObjective)
	}
	return w
}

// Report aggregates the fast (Window/12) and long (Window) windows and
// classifies status. With no traffic both windows report full compliance
// and status "ok". Nil-safe (zero report).
func (m *SLOMonitor) Report() SLOReport {
	if m == nil {
		return SLOReport{Status: "disabled"}
	}
	now := m.now().Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	r := SLOReport{
		AvailabilityObjective: m.cfg.Availability,
		LatencyObjective:      m.cfg.LatencyObjective,
		LatencyThresholdUS:    m.cfg.LatencyThreshold.Microseconds(),
		Fast:                  m.window(m.cfg.Window/12, now),
		Long:                  m.window(m.cfg.Window, now),
		Status:                "ok",
	}
	both := func(th float64) bool {
		return (r.Fast.AvailabilityBurn >= th && r.Long.AvailabilityBurn >= th) ||
			(r.Fast.LatencyBurn >= th && r.Long.LatencyBurn >= th)
	}
	switch {
	case both(m.cfg.PageBurn):
		r.Status = "page"
	case both(m.cfg.WarnBurn):
		r.Status = "warn"
	}
	return r
}
