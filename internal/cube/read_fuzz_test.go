package cube

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// danglingProfiles are profiles whose tree links point past their
// tables: accepted, they would make Mean and PathString index out of
// range.
var danglingProfiles = map[string]string{
	"metric parent 7": `{"clock":"tsc","metrics":[{"name":"time","parent":-1},{"name":"mpi","parent":7}],"paths":[{"name":"main","parent":-1}],"locations":["r0t0"],"severities":[{"m":1,"p":0,"v":[1]}]}`,
	"path parent 9":   `{"clock":"tsc","metrics":[{"name":"time","parent":-1}],"paths":[{"name":"main","parent":-1},{"name":"solve","parent":9}],"locations":["r0t0"],"severities":[{"m":0,"p":1,"v":[1]}]}`,
}

func TestReadRejectsMalformedProfiles(t *testing.T) {
	cases := map[string]string{
		"metric parent is itself":  `{"metrics":[{"name":"time","parent":0}]}`,
		"negative path parent":     `{"paths":[{"name":"main","parent":-2}]}`,
		"duplicate metric name":    `{"metrics":[{"name":"time","parent":-1},{"name":"time","parent":-1}]}`,
		"duplicate path":           `{"paths":[{"name":"main","parent":-1},{"name":"main","parent":-1}]}`,
		"negative severity metric": `{"metrics":[{"name":"time","parent":-1}],"paths":[{"name":"main","parent":-1}],"locations":["a"],"severities":[{"m":-1,"p":0,"v":[1]}]}`,
		"severity path past table": `{"metrics":[{"name":"time","parent":-1}],"paths":[{"name":"main","parent":-1}],"locations":["a"],"severities":[{"m":0,"p":1,"v":[1]}]}`,
		"duplicate severity":       `{"metrics":[{"name":"time","parent":-1}],"paths":[{"name":"main","parent":-1}],"locations":["a"],"severities":[{"m":0,"p":0,"v":[1]},{"m":0,"p":0,"v":[2]}]}`,
		"more values than locs":    `{"metrics":[{"name":"time","parent":-1}],"paths":[{"name":"main","parent":-1}],"locations":["a"],"severities":[{"m":0,"p":0,"v":[1,2]}]}`,
	}
	for name, in := range danglingProfiles {
		cases[name] = in
	}
	// Both decoders must reject each case: the JSON as written, the
	// binary section encoded from the same records.
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: profile accepted", name)
		}
		var recs profileJSON
		if err := json.Unmarshal([]byte(in), &recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bin, err := recs.appendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := ReadBinary(bin); err == nil {
			t.Errorf("%s: binary profile accepted", name)
		}
	}
	// Whatever Write and AppendBinary produce must still pass, with
	// whitespace after the JSON value; anything else after the profile
	// is rejected by both decoders.
	var buf bytes.Buffer
	if err := buildSample().Write(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	if _, err := Read(strings.NewReader(js + " \n")); err != nil {
		t.Fatalf("Write output rejected: %v", err)
	}
	const junk = `{"junk": 1} trailing garbage`
	if _, err := Read(strings.NewReader(js + junk)); err == nil {
		t.Error("profile followed by junk accepted")
	}
	bin, err := buildSample().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bin); err != nil {
		t.Fatalf("AppendBinary output rejected: %v", err)
	}
	if _, err := ReadBinary(append(bin, junk...)); err == nil {
		t.Error("binary profile followed by junk accepted")
	}
}

// FuzzCubeRead feeds arbitrary bytes to both profile readers, Read and
// ReadBinary.  They must never panic; every profile they accept must
// survive the queries and renderers the report runs on cached profiles,
// its Write bytes must round-trip through Read unchanged, and it must
// round-trip through AppendBinary and ReadBinary to the same Write
// bytes.  The committed corpus under testdata/fuzz/FuzzCubeRead holds a
// real profile as JSON and as a binary section, the two dangling-link
// profiles and malformed variants.
func FuzzCubeRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Read(bytes.NewReader(data)); err == nil {
			checkAccepted(t, p)
		}
		if p, err := ReadBinary(data); err == nil {
			checkAccepted(t, p)
		}
	})
}

// checkAccepted runs the queries and both round trips on a profile a
// reader accepted.
func checkAccepted(t *testing.T, p *Profile) {
	t.Helper()
	Mean([]*Profile{p, p})
	for i := range p.Paths {
		p.PathString(PathID(i))
	}
	for _, m := range p.Metrics {
		p.TopPaths(m.Name, 5)
	}
	p.RenderMetricTree(io.Discard)
	var a, b bytes.Buffer
	if err := p.Write(&a); err != nil {
		t.Fatalf("accepted profile does not serialise: %v", err)
	}
	q, err := Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("Write output does not read back: %v", err)
	}
	if err := q.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Write bytes changed on a round trip:\n%s\n%s", a.Bytes(), b.Bytes())
	}
	bin, err := p.AppendBinary(nil)
	if err != nil {
		t.Fatalf("accepted profile does not encode: %v", err)
	}
	r, err := ReadBinary(bin)
	if err != nil {
		t.Fatalf("AppendBinary output does not read back: %v", err)
	}
	b.Reset()
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Write bytes changed on a binary round trip:\n%s\n%s", a.Bytes(), b.Bytes())
	}
}
