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

	for _, c := range []struct {
		args []string
		flag string // the flag the message must name
	}{
		{[]string{"-threads", "abc"}, "-threads"},
		{[]string{"-recovery"}, "-recovery"},
		{[]string{"-exp", "fig10", "-threads", "0"}, "-threads"},
		{[]string{"-exp", "fig7", "-ops", "0"}, "-ops"},
		{[]string{"-exp", "fig4", "-warm", "0"}, "-warm"},
		{[]string{"-exp", "fig4", "-scale", "bogus"}, "-scale"},
	} {
		out.Reset()
		errOut.Reset()
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if !strings.Contains(errOut.String(), c.flag) {
			t.Errorf("%v: message does not name %s: %q", c.args, c.flag, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v printed to stdout:\n%s", c.args, out.String())
		}
	}
}
