package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// newFlagSet builds a quiet FlagSet with the full shared flag complement
// registered, mirroring what every cmd/ tool does at startup.
type sharedFlags struct {
	workers  *int
	maxSteps *int64
	maxDepth *int
	seed     *uint64
	jsonPath *string
	obs      *ObsFlags
}

func newFlagSet() (*flag.FlagSet, *sharedFlags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, &sharedFlags{
		workers:  RegisterWorkersFlag(fs),
		maxSteps: RegisterMaxStepsFlag(fs),
		maxDepth: RegisterMaxDepthFlag(fs),
		seed:     RegisterSeedFlag(fs, 1, "seed"),
		jsonPath: RegisterJSONFlag(fs, "json path"),
		obs:      RegisterObsFlags(fs),
	}
}

func TestSharedFlagParsing(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, f *sharedFlags)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, f *sharedFlags) {
				if *f.workers != 0 || *f.maxSteps != 0 || *f.maxDepth != 0 {
					t.Fatalf("engine knob defaults: workers=%d steps=%d depth=%d", *f.workers, *f.maxSteps, *f.maxDepth)
				}
				if *f.seed != 1 {
					t.Fatalf("seed default = %d, want the registered default 1", *f.seed)
				}
				if *f.jsonPath != "" {
					t.Fatalf("json default = %q, want empty", *f.jsonPath)
				}
				if f.obs.Enabled() {
					t.Fatalf("obs flags must default to disabled: %+v", *f.obs)
				}
				if f.obs.ProfileTop != 10 {
					t.Fatalf("profile-top default = %d, want 10", f.obs.ProfileTop)
				}
			},
		},
		{
			name: "engine knobs",
			args: []string{"-workers", "4", "-max-steps", "1000", "-max-depth", "32", "-seed", "99", "-json", "out.json"},
			check: func(t *testing.T, f *sharedFlags) {
				if *f.workers != 4 || *f.maxSteps != 1000 || *f.maxDepth != 32 {
					t.Fatalf("engine knobs: workers=%d steps=%d depth=%d", *f.workers, *f.maxSteps, *f.maxDepth)
				}
				if *f.seed != 99 || *f.jsonPath != "out.json" {
					t.Fatalf("seed=%d json=%q", *f.seed, *f.jsonPath)
				}
			},
		},
		{
			name: "obs flags",
			args: []string{"-metrics-json", "m.json", "-trace", "t.json", "-http", "127.0.0.1:0", "-profile-checks", "-profile-top", "5"},
			check: func(t *testing.T, f *sharedFlags) {
				o := f.obs
				if !o.Enabled() {
					t.Fatal("obs flags set but Enabled() is false")
				}
				if o.MetricsJSON != "m.json" || o.TracePath != "t.json" || o.HTTPAddr != "127.0.0.1:0" {
					t.Fatalf("obs paths: %+v", *o)
				}
				if !o.ProfileChecks || o.ProfileTop != 5 {
					t.Fatalf("profile knobs: %+v", *o)
				}
			},
		},
		{
			name: "single obs flag enables",
			args: []string{"-metrics-json", "m.json"},
			check: func(t *testing.T, f *sharedFlags) {
				if !f.obs.Enabled() {
					t.Fatal("-metrics-json alone must enable observability")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, f := newFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			tc.check(t, f)
		})
	}
}

func TestSharedFlagRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "abc"},
		{"-max-steps", "1.5"},
		{"-seed", "-1"},
		{"-profile-top", "x"},
	} {
		fs, _ := newFlagSet()
		if err := fs.Parse(args); err == nil {
			t.Fatalf("parse %v: expected an error", args)
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(3); got != 3 {
		t.Fatalf("ResolveWorkers(3) = %d", got)
	}
	if got := ResolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := ResolveWorkers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(-2) = %d, want GOMAXPROCS", got)
	}
}

func TestWriteJSONAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := WriteJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]int
	if err := json.Unmarshal(first, &v); err != nil || v["a"] != 1 {
		t.Fatalf("first write round-trip: %v %v", v, err)
	}

	// Overwrite: the replacement must be complete and the directory must not
	// accumulate temporary files.
	if err := WriteJSON(path, map[string]int{"a": 2}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &v); err != nil || v["a"] != 2 {
		t.Fatalf("second write round-trip: %v %v", v, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.json" {
		t.Fatalf("directory holds %v, want only out.json (no temp-file litter)", entries)
	}

	// A failed write must leave the existing file untouched.
	if err := WriteJSON(path, map[string]any{"bad": func() {}}); err == nil {
		t.Fatal("marshaling a func must fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(second) {
		t.Fatalf("failed write corrupted the previous file:\n%s", after)
	}
}

func TestWriteToFailureLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := writeTo(path, func(w io.Writer) error {
		return fmt.Errorf("stream failed")
	}); err == nil {
		t.Fatal("writeTo must propagate the stream error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed writeTo must not create %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("directory holds %v, want empty (temp removed on failure)", entries)
	}
}

func TestObsFlagsBuild(t *testing.T) {
	// No flags: nil observer, nil server — callers pass both straight on.
	f := &ObsFlags{}
	o, srv, err := f.Build()
	if err != nil || o != nil || srv != nil {
		t.Fatalf("Build() with no flags = %v, %v, %v", o, srv, err)
	}
	if err := f.Finish(o, srv, 0); err != nil {
		t.Fatalf("Finish with nil observer: %v", err)
	}

	// Trace + profile: the corresponding facilities come enabled.
	f = &ObsFlags{TracePath: t.TempDir() + "/t.json", ProfileChecks: true}
	o, srv, err = f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if o == nil || o.Flight == nil || o.Sites == nil || srv != nil {
		t.Fatalf("Build() = %+v, srv=%v", o, srv)
	}
	if err := f.Finish(o, srv, 0); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestWriteToDurable: the happy path syncs the data and the directory — a
// successful write leaves exactly the target file, readable back in full
// (the sync calls themselves are untestable without fault injection, but a
// bad file descriptor in either would fail the write loudly).
func TestWriteToDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := writeTo(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("read back %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the target", len(entries))
	}
}

// TestWriteAtomicCreatesParents: artifact paths like artifacts/foo.jsonl
// must work on a fresh checkout — the writer creates missing parent
// directories before staging the temp file.
func TestWriteAtomicCreatesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifacts", "nested", "out.jsonl")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := fmt.Fprintln(w, `{"ok":true}`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"ok\":true}\n" {
		t.Fatalf("content %q", data)
	}

	// A failed write must leave no file behind.
	failPath := filepath.Join(t.TempDir(), "sub", "bad.json")
	if err := WriteAtomic(failPath, func(io.Writer) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("write error not propagated")
	}
	if _, err := os.Stat(failPath); !os.IsNotExist(err) {
		t.Fatalf("failed write left %s behind", failPath)
	}
}
