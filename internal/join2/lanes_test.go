package join2

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// The lane kernel's only switch is an unexported variable of internal/dht,
// and the joiner-level identity suites live here: the test binary binds to it
// by name rather than dht exporting a knob for them.
//
//go:linkname dhtUseAsm repro/internal/dht.useAsm
var dhtUseAsm bool

//go:linkname dhtAsmMissing repro/internal/dht.asmMissing
var dhtAsmMissing string

// eachLaneBody runs f under each body of dht's lane kernel ("go", then "asm"
// where the machine can run it) and restores the switch.
func eachLaneBody(t *testing.T, f func(t *testing.T)) {
	for _, asm := range []bool{false, true} {
		name := "go"
		if asm {
			name = "asm"
		}
		t.Run(name, func(t *testing.T) {
			if asm && dhtAsmMissing != "" {
				t.Skipf("no assembly lane kernel to run: %s", dhtAsmMissing)
			}
			defer func(was bool) { dhtUseAsm = was }(dhtUseAsm)
			dhtUseAsm = asm
			f(t)
		})
	}
}
