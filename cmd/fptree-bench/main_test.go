package main

import (
	"bytes"
	"strings"
	"testing"

	"fptree/internal/bench"
)

func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig4", "-warm", "2000"}, &out, &errOut); code != 0 {
		t.Fatalf("-exp fig4 exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "===== fig4 =====") || !strings.Contains(out.String(), "FP(analytic)") {
		t.Fatalf("-exp fig4 printed no fig4 section:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-exp", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("-exp bogus exited %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("-exp bogus printed to stdout:\n%s", out.String())
	}
	for _, e := range bench.Experiments {
		if !strings.Contains(errOut.String(), e.ID) {
			t.Errorf("-exp bogus does not name valid id %q:\n%s", e.ID, errOut.String())
		}
	}

	for _, args := range [][]string{{"-threads", "abc"}, {"-recovery", "-recovery-workers", "1,x"}} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
	}
}
