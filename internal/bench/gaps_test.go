package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

var gapsPath = filepath.Join("..", "..", "bench", "baseline", GapsFile)

// ROADMAP aim 3, read both ways on the committed tables (TestGoldenTables
// holds them equal to regenerated ones): every paper row more than
// GapBound from the paper has an owner, and every owner names a paper
// row that is.
func TestPaperGaps(t *testing.T) {
	owned := map[[2]string]bool{}
	for _, name := range Names() {
		raw, err := os.ReadFile(baselinePath(name))
		if err != nil {
			t.Fatal(err)
		}
		_, tab, err := DecodeTableJSON(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Rows {
			key := [2]string{name, r.Name}
			if r.Paper == 0 || gapOwners[key] == "" {
				continue
			}
			owned[key] = true
			if gap(r) <= GapBound {
				t.Errorf("table %s row %q is %.2f× from the paper, within %.1f×, and still has an owner", name, r.Name, gap(r), GapBound)
			}
		}
		for _, r := range tab.Rows {
			if r.Paper != 0 && gap(r) > GapBound && !owned[[2]string{name, r.Name}] {
				t.Errorf("table %s row %q is %.2f× from the paper (%.2f against %.2f %s) and has no owner in gapOwners", name, r.Name, gap(r), r.Measured, r.Paper, r.Unit)
			}
		}
	}
	for key := range gapOwners {
		if !owned[key] {
			t.Errorf("gapOwners names table %s row %q, which is not a paper row", key[0], key[1])
		}
	}
}
