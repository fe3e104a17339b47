package cube

import (
	"bytes"
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
	}
	for name, in := range danglingProfiles {
		cases[name] = in
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: profile accepted", name)
		}
	}
	// Whatever Write produces must still pass.
	var buf bytes.Buffer
	if err := buildSample().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("Write output rejected: %v", err)
	}
}

// FuzzCubeRead feeds arbitrary bytes to the profile reader.  It must
// never panic; every profile it accepts must survive the queries and
// renderers the report runs on cached profiles, and its Write bytes
// must round-trip through Read unchanged.  The committed corpus under
// testdata/fuzz/FuzzCubeRead holds a real profile, the two
// dangling-link profiles and malformed variants.
func FuzzCubeRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
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
	})
}
