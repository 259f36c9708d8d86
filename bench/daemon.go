package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"npudvfs/internal/server/client"
)

// The daemon's sizing: dvfsd's own defaults, stated so the in-process
// replay server is configured identically.
const (
	daemonWorkers = 2
	daemonQueue   = 16
	daemonCache   = 128
)

// buildDaemon compiles ./cmd/dvfsd into binDir. Compile time is not
// part of any metric; the Go build cache makes repeat builds in one
// checkout cheap.
func buildDaemon(ctx context.Context, root, binDir string) (string, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(binDir, "dvfsd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dvfsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dvfsd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running dvfsd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan error
	once   sync.Once
}

// startDaemon spawns dvfsd in dir (which it also uses for its address
// file, log and job store) and returns once /healthz answers.
func startDaemon(ctx context.Context, bin, dir string, w *workloadDef, bundlePaths []string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", fmt.Sprint(daemonWorkers), "-queue", fmt.Sprint(daemonQueue), "-cache", fmt.Sprint(daemonCache),
	}
	if w.bundles {
		args = append(args, "-load-models", strings.Join(bundlePaths, ","))
	}
	if w.fsStore {
		args = append(args, "-store", filepath.Join(dir, "store"))
	}
	logf, err := os.Create(filepath.Join(dir, "dvfsd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The island count of a search derives from GOMAXPROCS, and the
	// validator regenerates strategies in this process: pin the child
	// to this process's value so both run the same search.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting dvfsd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		// dvfsd writes the file only once it is listening.
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if err := d.pause(ctx, deadline, "to write its address"); err != nil {
			return nil, err
		}
	}
	cl := client.New(d.base)
	for cl.Health(ctx) != nil {
		if err := d.pause(ctx, deadline, "to answer /healthz"); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// pause waits a millisecond for the child to come up, failing (and
// reaping the child) if it exited, the deadline passed or ctx ended.
func (d *daemon) pause(ctx context.Context, deadline time.Time, what string) error {
	select {
	case err := <-d.exited:
		d.exited <- err // stop still finds the exit it waits for
		d.stop()
		return fmt.Errorf("dvfsd exited while the benchmark waited for it %s: %v (see %s)", what, err, d.log.Name())
	case <-ctx.Done():
		d.stop()
		return ctx.Err()
	case <-time.After(time.Millisecond):
	}
	if time.Now().After(deadline) {
		d.stop()
		return fmt.Errorf("dvfsd took over 30 s %s (see %s)", what, d.log.Name())
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop terminates the child and waits until it has exited: SIGTERM
// first (dvfsd drains and exits), SIGKILL if it has not gone in 10 s.
// Calling it again is a no-op.
func (d *daemon) stop() {
	d.once.Do(func() {
		defer d.log.Close()
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			_ = d.cmd.Process.Kill()
		}
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
}
