package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Machine-readable table artifacts. Each registered table encodes to
// one BENCH_<name>.json file with a versioned schema. The tables run
// on the cycle clock, so the encoding of a regenerated table is
// byte-equal to the committed bench/baseline artifact until the code
// path itself changes: TestGoldenTables is that comparison, and the
// cycle-clock half of the perf gate (docs/PERFORMANCE.md). The
// encoding is lossless: DecodeTableJSON(EncodeTableJSON(t)) == t for
// every table.

// SchemaVersion stamps the artifact format. Bump on incompatible
// layout changes; DecodeTableJSON refuses any other version.
const SchemaVersion = 1

type tableJSON struct {
	Schema int       `json:"schema"`
	Name   string    `json:"name"` // registry name ("1", "pathlen", ...)
	Title  string    `json:"title"`
	Note   string    `json:"note,omitempty"`
	Rows   []rowJSON `json:"rows"`
}

type rowJSON struct {
	Name     string  `json:"name"`
	Paper    float64 `json:"paper,omitempty"`
	Measured float64 `json:"measured"`
	Unit     string  `json:"unit"`
	Note     string  `json:"note,omitempty"`
}

// EncodeTableJSON writes the table as indented JSON. name is the
// registry name the table was generated under; it rides along so a
// directory of artifacts is self-describing.
func EncodeTableJSON(w io.Writer, name string, t Table) error {
	doc := tableJSON{Schema: SchemaVersion, Name: name, Title: t.Title, Note: t.Note}
	doc.Rows = make([]rowJSON, len(t.Rows))
	for i, r := range t.Rows {
		doc.Rows[i] = rowJSON(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// DecodeTableJSON reads one artifact back, returning the registry
// name and the table.
func DecodeTableJSON(r io.Reader) (string, Table, error) {
	var doc tableJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return "", Table{}, err
	}
	if doc.Schema != SchemaVersion {
		return "", Table{}, fmt.Errorf("bench: artifact schema %d, want %d", doc.Schema, SchemaVersion)
	}
	t := Table{Title: doc.Title, Note: doc.Note}
	if len(doc.Rows) > 0 {
		t.Rows = make([]Row, len(doc.Rows))
		for i, r := range doc.Rows {
			t.Rows[i] = Row(r)
		}
	}
	return doc.Name, t, nil
}

// ArtifactName maps a registry name to its artifact filename:
// numbered tables get "BENCH_table<N>.json", the rest
// "BENCH_<name>.json".
func ArtifactName(name string) string {
	if _, err := strconv.Atoi(name); err == nil {
		return "BENCH_table" + name + ".json"
	}
	return "BENCH_" + name + ".json"
}

// WriteArtifact encodes the table into dir under its artifact name,
// creating dir as needed, and returns the written path.
func WriteArtifact(dir, name string, t Table) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ArtifactName(name))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := EncodeTableJSON(f, name, t); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
