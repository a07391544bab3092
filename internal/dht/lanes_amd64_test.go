package dht

import (
	"strings"
	"testing"
)

// TestAVX2Detection feeds the deciding function the four things CPUID and
// XGETBV can say between them: the switch goes on only when both say yes,
// and a refusal names the instruction that said no. What init decided for
// this machine must be that function's verdict on what the two report now.
func TestAVX2Detection(t *testing.T) {
	for _, tc := range []struct {
		cpuid, xgetbv bool
		blame         string
	}{
		{true, true, ""},
		{false, true, "CPUID"},
		{true, false, "XGETBV"},
		{false, false, "CPUID"},
	} {
		gap := avx2Gap(tc.cpuid, tc.xgetbv)
		if (gap == "") != (tc.blame == "") || !strings.Contains(gap, tc.blame) {
			t.Errorf("avx2Gap(cpuid %v, xgetbv %v) = %q, want it to name %q", tc.cpuid, tc.xgetbv, gap, tc.blame)
		}
	}
	cpu := cpuidAVX2()
	if want := avx2Gap(cpu, cpu && xgetbvYMM()); asmMissing != want {
		t.Errorf("init left asmMissing = %q, the machine says %q", asmMissing, want)
	}
	if scatterAsm == nil || gatherAsm == nil {
		t.Error("amd64 registered no assembly bodies")
	}
	t.Logf("this machine: cpuidAVX2 = %v, asmMissing = %q", cpu, asmMissing)
}
