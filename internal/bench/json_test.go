package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestNamesOrdering(t *testing.T) {
	want := []string{"1", "2", "3", "4", "5", "6", "7", "ablations", "pathlen", "proc", "queue_contention", "size"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestArtifactName(t *testing.T) {
	cases := map[string]string{
		"1":         "BENCH_table1.json",
		"7":         "BENCH_table7.json",
		"pathlen":   "BENCH_pathlen.json",
		"ablations": "BENCH_ablations.json",
	}
	for name, want := range cases {
		if got := ArtifactName(name); got != want {
			t.Errorf("ArtifactName(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestTableJSONRoundTripSynthetic(t *testing.T) {
	in := Table{
		Title: "Table X: synthetic",
		Note:  "a note",
		Rows: []Row{
			{Name: "emulated read", Paper: 12, Measured: 11.5, Unit: "usec", Note: "n=100"},
			{Name: "zero paper", Measured: 3, Unit: "instr"},
			{Name: "throughput", Paper: 1000, Measured: 1100, Unit: "fr/s"},
		},
	}
	var buf bytes.Buffer
	if err := EncodeTableJSON(&buf, "x", in); err != nil {
		t.Fatal(err)
	}
	name, out, err := DecodeTableJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "x" {
		t.Fatalf("decoded name %q, want %q", name, "x")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, _, err := DecodeTableJSON(strings.NewReader(`{"schema":99,"name":"x","title":"t","rows":[]}`)); err == nil {
		t.Fatal("schema 99 accepted")
	}
}

// goldenIters is the config bench/baseline was generated at: synbench's
// default -iters.
const goldenIters = 200

func baselinePath(name string) string {
	return filepath.Join("..", "..", "bench", "baseline", ArtifactName(name))
}

// goldenDiff compares a table's artifact encoding with the committed
// bytes and, when they differ, names the table and the first row that
// moved. Empty means byte-equal.
func goldenDiff(name string, got Table, want []byte) string {
	var buf bytes.Buffer
	if err := EncodeTableJSON(&buf, name, got); err != nil {
		return fmt.Sprintf("table %s: %v", name, err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return ""
	}
	_, base, err := DecodeTableJSON(bytes.NewReader(want))
	if err != nil {
		return fmt.Sprintf("table %s: baseline: %v", name, err)
	}
	for i, r := range got.Rows {
		if i >= len(base.Rows) {
			return fmt.Sprintf("table %s row %q: not in the baseline", name, r.Name)
		}
		if r != base.Rows[i] {
			return fmt.Sprintf("table %s row %q:\n got %+v\nwant %+v", name, base.Rows[i].Name, r, base.Rows[i])
		}
	}
	if len(got.Rows) < len(base.Rows) {
		return fmt.Sprintf("table %s row %q: missing", name, base.Rows[len(got.Rows)].Name)
	}
	return fmt.Sprintf("table %s: title, note or encoding differs from the baseline", name)
}

// TestGoldenTables is the cycle-clock perf gate: every registered
// table, regenerated at the baseline's config, must encode byte-equal
// to its committed bench/baseline artifact. The simulator has no wall
// time or randomness on a measured path, so any difference means a
// code path changed; if the change is intended, refresh with
// `go run ./cmd/synbench -json bench/baseline` and review the diff.
// Decoding the artifact and re-encoding it must also reproduce the
// bytes, which is the JSON round-trip on every real table, and the
// file WriteArtifact writes, as `synbench -json` does, must hold them.
func TestGoldenTables(t *testing.T) {
	names := Names()
	tables := map[string]Table{}
	dir := t.TempDir()
	for _, name := range names {
		want, err := os.ReadFile(baselinePath(name))
		if err != nil {
			t.Errorf("table %s has no baseline: %v", name, err)
			continue
		}
		decName, base, err := DecodeTableJSON(bytes.NewReader(want))
		if err != nil || decName != name {
			t.Errorf("table %s: baseline decodes as %q, %v", name, decName, err)
			continue
		}
		if msg := goldenDiff(name, base, want); msg != "" {
			t.Errorf("baseline does not survive decode/encode: %s", msg)
		}
		tab, err := Run(name, RunConfig{Iters: goldenIters})
		if err != nil {
			t.Errorf("table %s: %v", name, err)
			continue
		}
		if msg := goldenDiff(name, tab, want); msg != "" {
			t.Error(msg)
		} else if path, err := WriteArtifact(dir, name, tab); err != nil {
			t.Errorf("table %s: %v", name, err)
		} else if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("table %s: WriteArtifact wrote %s unlike the baseline (%v)", name, path, err)
		}
		tables[name] = tab
	}
	// The ledger of paper rows renders from the regenerated tables.
	if want, err := os.ReadFile(gapsPath); err != nil || string(want) != PaperGaps(tables) {
		t.Errorf("%s is not what the tables render (%v): run `go run ./cmd/synbench -json bench/baseline`", GapsFile, err)
	}
	// An artifact no table regenerates would sit ungated.
	files, err := filepath.Glob(baselinePath("*"))
	if err != nil || len(files) != len(names) {
		t.Errorf("bench/baseline holds %d artifacts (%v), want one per registered table (%d)", len(files), err, len(names))
	}
}

// The gate must trip: one perturbed value fails the comparison, and
// the message names the table and the row.
func TestGoldenTablesCatchOneValue(t *testing.T) {
	want, err := os.ReadFile(baselinePath("2"))
	if err != nil {
		t.Fatal(err)
	}
	_, tab, err := DecodeTableJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	const victim = 3
	tab.Rows[victim].Measured *= 1.5 // the old "inflated latency" case
	msg := goldenDiff("2", tab, want)
	if !strings.Contains(msg, "table 2") || !strings.Contains(msg, strconv.Quote(tab.Rows[victim].Name)) {
		t.Fatalf("perturbed row %q not reported: %q", tab.Rows[victim].Name, msg)
	}
}
