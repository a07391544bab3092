package dht

import "repro/internal/graph"

// The AVX2 bodies of the lane kernel, and the two instructions that say
// whether this machine can run them (golang.org/x/sys/cpu is not in the
// module), all in lanes_amd64.s.

//go:noescape
func scatterAVX2(cur, next *float64, index *int64, nbr *graph.NodeID, p *float64, rows *graph.NodeID, count int)

//go:noescape
func gatherAVX2(cur, next *float64, index *int64, nbr *graph.NodeID, p *float64, rows *graph.NodeID, count int)

// cpuidAVX2 reports whether CPUID lists AVX, AVX2 and OSXSAVE: the CPU has
// the instructions and XGETBV is legal.
func cpuidAVX2() bool

// xgetbvYMM reports whether XCR0 says the OS saves XMM and YMM state across
// context switches. It faults unless cpuidAVX2 said yes.
func xgetbvYMM() bool

func init() {
	scatterAsm, gatherAsm = scatterAVX2, gatherAVX2
	cpu := cpuidAVX2()
	asmMissing = avx2Gap(cpu, cpu && xgetbvYMM())
	useAsm = asmMissing == ""
}

// avx2Gap is the decision apart from the reading: what CPUID and XGETBV
// answered in, what keeps the AVX2 bodies off out ("": nothing).
func avx2Gap(cpuid, xgetbv bool) string {
	switch {
	case !cpuid:
		return "CPUID reports no AVX2"
	case !xgetbv:
		return "XGETBV reports the OS does not save YMM state"
	}
	return ""
}
