package studycli

import (
	"bytes"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parse declares the pool flags on a fresh flag set and parses args.
func parse(t *testing.T, extra Extra, args ...string) *Pool {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Flags(fs, extra)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return p
}

// captureLog sends the log package's output to a buffer for the rest of
// the test.
func captureLog(t *testing.T) *bytes.Buffer {
	var b bytes.Buffer
	flags, prefix := log.Flags(), log.Prefix()
	log.SetOutput(&b)
	log.SetFlags(0)
	log.SetPrefix("")
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(flags)
		log.SetPrefix(prefix)
	})
	return &b
}

// TestOpenLive: -cache and -live set up the cache, a registry, a
// progress reporter and an observatory that answers /healthz.  Close
// logs the cache line and stops the observatory.
func TestOpenLive(t *testing.T) {
	logged := captureLog(t)
	dir := t.TempDir()
	p := parse(t, MetricsFlag|LiveFlag, "-j", "3", "-cache", dir, "-live", "127.0.0.1:0")
	if err := p.Open("test"); err != nil {
		t.Fatal(err)
	}
	if p.Workers != 3 || p.Cache == nil || p.Metrics == nil || p.Progress == nil {
		t.Fatalf("pool = %+v, want workers 3 and a cache, registry and progress reporter", p)
	}
	addr := p.srv.Addr()
	if !strings.Contains(logged.String(), "live observatory on http://"+addr+"\n") {
		t.Fatalf("log = %q, want the observatory's address %s", logged, addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	logged.Reset()
	p.Close()
	if want := "run cache " + dir + ": 0 hits, 0 misses\n"; logged.String() != want {
		t.Fatalf("Close logged %q, want %q", logged, want)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatalf("the observatory still accepts connections on %s after Close", addr)
	}
}

// TestOpenOff: with no pool flag set, Open sets up nothing and Close
// logs nothing.
func TestOpenOff(t *testing.T) {
	logged := captureLog(t)
	p := parse(t, MetricsFlag|LiveFlag)
	if err := p.Open("test"); err != nil {
		t.Fatal(err)
	}
	if p.Cache != nil || p.Metrics != nil || p.Progress != nil || p.srv != nil {
		t.Fatalf("pool = %+v, want nothing set up", p)
	}
	p.Close()
	if logged.Len() != 0 {
		t.Fatalf("Close logged %q", logged)
	}
}

// TestOpenCacheIsAFile: a -cache path that names a regular file fails
// Open.
func TestOpenCacheIsAFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := parse(t, 0, "-cache", file).Open("test"); err == nil {
		t.Fatalf("Open accepted the regular file %s as a cache directory", file)
	}
}

// TestExtraFlags: -metrics and -live exist only where asked for.
func TestExtraFlags(t *testing.T) {
	for _, tc := range []struct {
		extra         Extra
		metrics, live bool
	}{{0, false, false}, {MetricsFlag, true, false}, {LiveFlag, false, true}, {MetricsFlag | LiveFlag, true, true}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Flags(fs, tc.extra)
		for _, name := range []string{"j", "cache", "progress"} {
			if fs.Lookup(name) == nil {
				t.Errorf("extra %d: no -%s", tc.extra, name)
			}
		}
		if (fs.Lookup("metrics") != nil) != tc.metrics || (fs.Lookup("live") != nil) != tc.live {
			t.Errorf("extra %d: -metrics declared %v, -live declared %v", tc.extra,
				fs.Lookup("metrics") != nil, fs.Lookup("live") != nil)
		}
	}
}
