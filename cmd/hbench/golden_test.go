package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hsp/internal/testenv"
)

// TestGoldenByteIdentity pins the solver hot-path refactors to their
// correctness oracle: the stable JSONL of a quick suite run must be
// byte-identical to the committed pre-refactor golden for every pack.
// Any change to a solver verdict — an LP feasibility flip, a different
// branch-and-bound assignment, a changed approximation ratio — shows up
// here as a byte diff. Regenerate the goldens ONLY for a change that is
// supposed to alter experiment output:
//
//	go run ./cmd/hbench -quick -parallel -pack <pack> -json > cmd/hbench/testdata/golden_quick_<pack>.jsonl
//
// The "alone" case runs every golden experiment by itself (-run ID) and
// checks its line: an experiment's seed derives from the base seed and
// its ID only (expt.DeriveSeed), so its record must not depend on which
// experiments run beside it.
func TestGoldenByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suites")
	}
	if testenv.RaceEnabled {
		// CI's non-race reproduction-gate steps run these exact suites;
		// repeating them under race instrumentation adds minutes for no
		// extra coverage (races are caught by the runner tests).
		t.Skip("full quick suites under -race duplicate the reproduction gate")
	}
	goldens := []struct{ pack, golden string }{
		{"paper", "golden_quick_paper.jsonl"},
		{"rt", "golden_quick_rt.jsonl"},
		{"memcap", "golden_quick_memcap.jsonl"},
		{"dag", "golden_quick_dag.jsonl"},
	}
	for _, tc := range goldens {
		t.Run(tc.pack, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			args := []string{"-quick", "-parallel", "-pack", tc.pack, "-json"}
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("pack %s: -quick -json output diverged from the pre-refactor golden\n"+
					"got %d bytes, want %d; first differing line: %q",
					tc.pack, out.Len(), len(want), firstDiffLine(out.Bytes(), want))
			}
		})
	}
	t.Run("alone", func(t *testing.T) {
		for _, tc := range goldens {
			data, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range bytes.SplitAfter(data, []byte("\n")) {
				if len(want) == 0 {
					continue
				}
				var rec struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(want, &rec); err != nil {
					t.Fatalf("%s: %v", tc.golden, err)
				}
				var out bytes.Buffer
				if err := run(context.Background(), []string{"-run", rec.ID, "-quick", "-json"}, &out); err != nil {
					t.Fatalf("%s: %v", rec.ID, err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("%s run alone diverged from its %s line\ngot  %q\nwant %q",
						rec.ID, tc.golden, out.Bytes(), want)
				}
			}
		}
	})
}

// firstDiffLine returns the first line where got and want differ.
func firstDiffLine(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return string(gl[i])
		}
	}
	if len(gl) != len(wl) {
		return "(line counts differ)"
	}
	return "(no differing line?)"
}
