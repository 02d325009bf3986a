package distsim

// Transport-layer accounting. A reliable-delivery layer (internal/reliable)
// wraps handlers and turns every protocol message into wire traffic —
// batches, acks, retransmissions — that the engine counts in the ordinary
// Metrics cells. To keep the paper's cost measures clean, the transport
// reports the *protocol-level* traffic it carried through TransportStats,
// which the engine snapshots into Metrics.Transport and attaches to the run
// span: Metrics.Messages/Words then measure the wire, Transport.Messages/
// Words measure the algorithm.

// TransportStats is the protocol-level ledger of a reliable transport
// session. All counts are exactly-once (duplicates and retransmissions never
// inflate them); the wire-side cost of achieving that lives in the ordinary
// message/word counters plus the Retransmits/Acks cells here.
type TransportStats struct {
	// Wrapped is true when a transport was attached to the run, so a zero
	// struct stays distinguishable from "no transport".
	Wrapped bool
	// Messages and Words count the inner protocol messages the transport
	// carried (what Metrics.Messages/Words would have been on a lossless
	// network without wrapping).
	Messages int64
	Words    int64
	// Delivered counts inner messages handed to inner handlers. Under a
	// completed run it equals Messages: the transport delivered every
	// protocol message exactly once, whatever the fault plan did.
	Delivered int64
	// MaxMsgWords is the largest inner message observed.
	MaxMsgWords int
	// CapExceeded counts inner messages above the protocol's own cap (the
	// engine cap is disabled under wrapping, so strictness moves here).
	CapExceeded int64
	// VirtualRounds is the highest inner round any node executed — the
	// protocol's round complexity as measured over the lossy network.
	VirtualRounds int
	// Retransmits, Acks, Heartbeats, DupBatches and ChecksumDrops tally the
	// transport's own wire activity: resent batches, acknowledgement
	// messages, blocked-node sign-of-life beats, duplicate batches
	// suppressed, and corrupted wire payloads discarded.
	Retransmits   int64
	Acks          int64
	Heartbeats    int64
	DupBatches    int64
	ChecksumDrops int64
	// LinksAbandoned counts links on which the retry budget or peer patience
	// was exhausted; any nonzero value means the run degraded gracefully
	// rather than completing the full protocol.
	LinksAbandoned int64
}

// Add accumulates other into t (the fold multi-phase drivers perform).
func (t *TransportStats) Add(other TransportStats) {
	t.Wrapped = t.Wrapped || other.Wrapped
	t.Messages += other.Messages
	t.Words += other.Words
	t.Delivered += other.Delivered
	if other.MaxMsgWords > t.MaxMsgWords {
		t.MaxMsgWords = other.MaxMsgWords
	}
	t.CapExceeded += other.CapExceeded
	t.VirtualRounds += other.VirtualRounds
	t.Retransmits += other.Retransmits
	t.Acks += other.Acks
	t.Heartbeats += other.Heartbeats
	t.DupBatches += other.DupBatches
	t.ChecksumDrops += other.ChecksumDrops
	t.LinksAbandoned += other.LinksAbandoned
}

// TransportReporter is implemented by a transport session attached through
// Config.Transport. The engine snapshots it into Metrics.Transport, so the
// implementation must be safe for concurrent calls while handlers run.
type TransportReporter interface {
	TransportStats() TransportStats
}

// SendInterceptor redirects a node's NodeCtx effects. A transport wrapper
// installs one around the inner handler's invocation (SetInterceptor, run,
// SetInterceptor(nil, 0)): sends, halts and wake-ups are then captured by
// the wrapper instead of reaching the engine, which is how a protocol runs
// unmodified on top of a batching transport.
type SendInterceptor interface {
	// InterceptSend observes one inner send. The neighbor check has already
	// passed; data is the engine's copy of the payload, read-only and valid
	// until the intercepting handler's Start or HandleRound returns.
	InterceptSend(to NodeID, data []int64)
	// InterceptHalt observes the inner handler halting.
	InterceptHalt()
	// InterceptWake observes the inner handler requesting another round.
	InterceptWake()
}

// SetInterceptor installs (or, with nil, removes) a send interceptor on the
// node. While installed, Send/SendWords/Broadcast/Halt/WakeNextRound are
// routed to it and MaxMsgWords reports innerCap — the protocol-level cap —
// instead of the engine's wire cap.
func (n *NodeCtx) SetInterceptor(i SendInterceptor, innerCap int) {
	n.icept = i
	n.iceptCap = innerCap
}
