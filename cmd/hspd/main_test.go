package main

import (
	"bytes"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-timeout", "wat"}, &stderr); err == nil {
		t.Fatal("bad duration accepted")
	}
}
