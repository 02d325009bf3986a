//go:build linux

package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

// pinToOneCPU binds every thread of the process to the highest-numbered
// CPU it may run on and returns that CPU. Threads started later inherit
// the binding from the thread that starts them. A GOMAXPROCS=1 workload
// then never wakes a thread on another CPU: in a VM each such wakeup is an
// interrupt to a virtual CPU the host may not be running at that moment.
func pinToOneCPU() (int, error) {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return -1, e
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, syscall.EINVAL
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// A thread started while the list is walked may have copied an
	// unpinned parent's mask, so walk it twice.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
				return -1, e
			}
		}
	}
	return cpu, nil
}
