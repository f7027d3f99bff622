// Package cliutil holds the flag conventions shared by every cmd/ tool:
// the -workers/-max-steps/-max-depth knobs plumbed into the execution
// engine, the observability flag set (-metrics-json, -trace, -http,
// -profile-checks) backed by internal/obs, and the BENCH_*.json emission
// used by the benchmark commands.
package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"cecsan/internal/obs"
)

// RegisterWorkersFlag registers the shared -workers flag on fs: every tool
// exposes the same knob with the same meaning, plumbed into the engine
// scheduler.
func RegisterWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
}

// WorkersFlag registers -workers on the process-global flag set.
func WorkersFlag() *int { return RegisterWorkersFlag(flag.CommandLine) }

// RegisterMaxStepsFlag registers the shared -max-steps flag on fs: the
// per-case executed instruction budget fed to engine.Options.
// MaxInstructions. Exhaustion is a classified harness fault, not a crash.
func RegisterMaxStepsFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("max-steps", 0, "per-case instruction budget (0 = interpreter default)")
}

// MaxStepsFlag registers -max-steps on the process-global flag set.
func MaxStepsFlag() *int64 { return RegisterMaxStepsFlag(flag.CommandLine) }

// RegisterMaxDepthFlag registers the shared -max-depth flag on fs: the
// per-case simulated call-depth limit fed to engine.Options.MaxCallDepth.
func RegisterMaxDepthFlag(fs *flag.FlagSet) *int {
	return fs.Int("max-depth", 0, "per-case call-depth limit (0 = interpreter default)")
}

// MaxDepthFlag registers -max-depth on the process-global flag set.
func MaxDepthFlag() *int { return RegisterMaxDepthFlag(flag.CommandLine) }

// RegisterSeedFlag registers the shared -seed flag on fs with the given
// default: the deterministic seed for program-visible rand() streams and
// RNG-bearing sanitizer runtimes.
func RegisterSeedFlag(fs *flag.FlagSet, def uint64, usage string) *uint64 {
	return fs.Uint64("seed", def, usage)
}

// SeedFlag registers -seed on the process-global flag set.
func SeedFlag(def uint64, usage string) *uint64 {
	return RegisterSeedFlag(flag.CommandLine, def, usage)
}

// RegisterJSONFlag registers the shared -json flag on fs: the path a
// benchmark command writes its machine-readable result to.
func RegisterJSONFlag(fs *flag.FlagSet, usage string) *string {
	return fs.String("json", "", usage)
}

// JSONFlag registers -json on the process-global flag set.
func JSONFlag(usage string) *string { return RegisterJSONFlag(flag.CommandLine, usage) }

// ResolveWorkers maps the flag value to a concrete worker count.
func ResolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// WriteJSON writes v, pretty-printed, to path. The write is atomic: a
// concurrent reader (CI collecting artifacts, a watcher tailing BENCH
// records) sees either the previous complete file or the new one, never a
// torn prefix, and a crash mid-write cannot destroy an existing record.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeTo(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ObsFlags is the shared observability flag set. Every cmd/ tool registers
// the same four flags with the same meaning; Build turns them into an
// attached Observer and Finish writes the requested exports at exit.
type ObsFlags struct {
	// MetricsJSON is -metrics-json: path for the final registry snapshot.
	MetricsJSON string
	// TracePath is -trace: path for the Chrome trace_event view of the
	// flight recorder's request traces.
	TracePath string
	// HTTPAddr is -http: listen address for the live introspection endpoint
	// (":0" picks a free port; the bound address is printed to stderr).
	HTTPAddr string
	// ProfileChecks is -profile-checks: per-(sanitizer, check site) fire
	// count and cost attribution, printed as a top-N table at exit.
	ProfileChecks bool
	// ProfileTop is -profile-top: how many sites the table shows.
	ProfileTop int
	// ProfileJSON is -profile-json: path for the machine-readable site
	// profile (implies -profile-checks). The file is the baseline input to
	// cecsan-run's -profile-diff ablation mode.
	ProfileJSON string
}

// RegisterObsFlags registers the shared observability flags on fs.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write final metrics registry snapshot to this path")
	fs.StringVar(&f.TracePath, "trace", "", "write the request traces (instrument/run/reset spans) as Chrome trace_event JSON to this path")
	fs.StringVar(&f.HTTPAddr, "http", "", "serve live metric snapshots + pprof on this address (e.g. 127.0.0.1:0)")
	fs.BoolVar(&f.ProfileChecks, "profile-checks", false, "profile executed checks per (sanitizer, site); print the hottest sites at exit")
	fs.IntVar(&f.ProfileTop, "profile-top", 10, "rows in the -profile-checks table (0 = all)")
	fs.StringVar(&f.ProfileJSON, "profile-json", "", "write the full check-site profile as JSON to this path (implies -profile-checks)")
	return f
}

// ObsFlagsCmd registers the observability flags on the process-global flag
// set.
func ObsFlagsCmd() *ObsFlags { return RegisterObsFlags(flag.CommandLine) }

// Enabled reports whether any observability flag was set.
func (f *ObsFlags) Enabled() bool {
	return f.MetricsJSON != "" || f.TracePath != "" || f.HTTPAddr != "" || f.ProfileChecks || f.ProfileJSON != ""
}

// Build constructs the Observer the flags ask for and starts the live
// endpoint when -http was given (its bound address goes to stderr). Returns
// (nil, nil, nil) when no observability flag is set, so callers can pass the
// nil Observer straight into engine.Options.Obs.
func (f *ObsFlags) Build() (*obs.Observer, *obs.Server, error) {
	if !f.Enabled() {
		return nil, nil, nil
	}
	o := obs.New()
	if f.TracePath != "" {
		// Keep every healthy run up to the default budget.
		o.Flight = obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1})
	}
	if f.ProfileChecks || f.ProfileJSON != "" {
		o.Sites = obs.NewSiteProfiler()
	}
	var srv *obs.Server
	if f.HTTPAddr != "" {
		var err error
		srv, err = o.Serve(f.HTTPAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("cliutil: -http: %w", err)
		}
		fmt.Fprintf(os.Stderr, "obs: serving metrics + pprof on http://%s\n", srv.Addr)
	}
	return o, srv, nil
}

// Finish writes the exports the flags requested — the -metrics-json
// snapshot, the -trace file, the -profile-checks table (attributed against
// totalChecks when positive) — and shuts the live endpoint down. Safe to
// call with a nil Observer (no flags set).
func (f *ObsFlags) Finish(o *obs.Observer, srv *obs.Server, totalChecks int64) error {
	if o == nil {
		return srv.Close()
	}
	var firstErr error
	if f.MetricsJSON != "" {
		if err := writeTo(f.MetricsJSON, o.Registry.WriteJSON); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.TracePath != "" && o.Flight != nil {
		if err := writeTo(f.TracePath, o.Flight.WriteChromeTrace); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.ProfileChecks && o.Sites != nil {
		fmt.Println()
		o.Sites.FormatSites(os.Stdout, f.ProfileTop, totalChecks)
	}
	if f.ProfileJSON != "" && o.Sites != nil {
		if err := writeTo(f.ProfileJSON, o.Sites.WriteJSON); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// WriteAtomic streams write into path atomically and durably — the
// exported form of writeTo, for artifact writers (flight recorder dumps,
// trace exports) living outside this package.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	return writeTo(path, write)
}

// writeTo streams write into path atomically and durably: the content
// lands in a temporary file in the same directory (same filesystem, so the
// rename is atomic; the directory is created first if missing), is fsynced
// before the close, and replaces path only after a successful write — then
// the directory itself is fsynced so the rename survives a crash, not just
// the data. On any failure the temporary file is removed and the previous
// path contents are left untouched.
func writeTo(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fh, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := fh.Name()
	cleanup := func(err error) error {
		fh.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(fh); err != nil {
		return cleanup(err)
	}
	if err := fh.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := fh.Sync(); err != nil {
		return cleanup(err)
	}
	if err := fh.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
