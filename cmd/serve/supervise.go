package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cecsan/internal/checkpoint"
	"cecsan/internal/cliutil"
	"cecsan/internal/obs"
	"cecsan/internal/traffic"
)

// restartEnv carries the supervisor's restart count into the worker so the
// campaign summary records how many times it died.
const restartEnv = "CECSAN_SERVE_RESTARTS"

// restartCount reads the supervisor-provided restart count (0 outside a
// supervised run).
func restartCount() int64 {
	n, err := strconv.ParseInt(os.Getenv(restartEnv), 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// runSupervised re-executes this binary as a worker campaign and restarts
// it from the last checkpoint after abnormal exits — signal death (kill -9,
// OOM kill), panics and internal errors (exit 2). Normal completion (exit
// 0) ends the loop. The budget bounds crash-looping; each restart backs off
// twice as long as the last.
//
// When the campaign records flight traces, each abnormal exit dumps the
// last checkpoint's retained traces to <flightPath>.crash before the
// restart: the worker died without writing its own dump, but the
// checkpoint's flight state is the post-mortem as of the last barrier.
func runSupervised(ckptPath string, maxRestarts int, flightPath string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return exitInternal, err
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	backoff := 250 * time.Millisecond
	for restarts := 0; ; restarts++ {
		cmd := exec.Command(exe, childArgs(os.Args[1:], ckptPath)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", restartEnv, restarts))
		if err := cmd.Start(); err != nil {
			return exitInternal, err
		}

		waitCh := make(chan error, 1)
		go func() { waitCh <- cmd.Wait() }()
		var werr error
		interrupted := false
		select {
		case werr = <-waitCh:
		case sig := <-sigCh:
			// Forward the stop to the worker and wait for its graceful exit;
			// a signal the user sent is not a crash to recover from.
			interrupted = true
			_ = cmd.Process.Signal(sig)
			werr = <-waitCh
		}

		code, signaled := exitStatus(werr)
		if werr == nil || interrupted {
			return code, werr
		}
		if flightPath != "" {
			if derr := dumpFlight(ckptPath, flightPath+".crash"); derr != nil {
				fmt.Fprintf(os.Stderr, "serve: supervise: flight dump failed: %v\n", derr)
			}
		}
		if restarts >= maxRestarts {
			return exitInternal, fmt.Errorf("supervise: worker died %d times (budget %d), giving up: %v",
				restarts+1, maxRestarts, werr)
		}
		cause := fmt.Sprintf("exit %d", code)
		if signaled {
			cause = werr.Error()
		}
		fmt.Fprintf(os.Stderr, "serve: supervise: worker died (%s); restart %d/%d from %s in %v\n",
			cause, restarts+1, maxRestarts, ckptPath, backoff)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// dumpFlight reconstructs a flight recorder from the last checkpoint's
// flight state and writes its retained traces (as JSON lines) to path. The
// supervisor cannot see the dead worker's memory; the checkpoint's
// consistent cut is the best post-mortem available. A checkpoint without
// flight state (recorder not armed, or none taken yet) is not an error —
// there is simply nothing to dump.
func dumpFlight(ckptPath, path string) error {
	var ck traffic.ServeCheckpoint
	if err := checkpoint.Load(ckptPath, checkpoint.KindServe, &ck); err != nil {
		return err
	}
	if ck.Flight == nil {
		return nil
	}
	rec := obs.FlightFromState(ck.Flight)
	if err := cliutil.WriteAtomic(path, rec.WriteJSONLines); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: supervise: dumped %d retained traces to %s\n",
		len(ck.Flight.Interesting)+len(ck.Flight.Sampled), path)
	return nil
}

// exitStatus classifies a Wait error: the worker's exit code, and whether a
// signal (not an exit) killed it.
func exitStatus(err error) (code int, signaled bool) {
	if err == nil {
		return exitOK, false
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return exitInternal, true
		}
		return ee.ExitCode(), false
	}
	return exitInternal, false
}

// childArgs rewrites the supervisor's own argument list for the worker:
// the supervision flags go away, any stale -resume goes away, and a fresh
// -resume is appended only once a snapshot actually exists — the first
// incarnation starts clean, every later one resumes.
func childArgs(args []string, ckptPath string) []string {
	out := make([]string, 0, len(args)+2)
	skipValue := false
	for _, a := range args {
		if skipValue {
			skipValue = false
			continue
		}
		if !strings.HasPrefix(a, "-") {
			out = append(out, a)
			continue
		}
		name := strings.TrimLeft(a, "-")
		hasInline := false
		if i := strings.IndexByte(name, '='); i >= 0 {
			name, hasInline = name[:i], true
		}
		switch name {
		case "supervise":
			// Boolean flag: a following value is only consumed inline.
		case "resume", "max-restarts":
			skipValue = !hasInline
		default:
			out = append(out, a)
		}
	}
	if _, err := os.Stat(ckptPath); err == nil {
		out = append(out, "-resume", ckptPath)
	}
	return out
}
