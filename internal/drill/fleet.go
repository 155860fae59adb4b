package drill

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Backend is one serving process of a drill fleet.
type Backend interface {
	URL() string
	// Kill stops the backend the hard way: no drain, in-flight requests
	// die with it, the way real backends crash.
	Kill()
	// Drain asks for a graceful stop and returns nil only when the
	// backend finished its in-flight work and exited clean within timeout.
	Drain(timeout time.Duration) error
}

// Spawn starts one backend. Every backend of a fleet must answer every key
// byte-identically, which is what makes hedged and failed-over answers
// indistinguishable from primary ones.
type Spawn func() (Backend, error)

// fleet is the backends of one drill run.
type fleet struct {
	backends []Backend
	down     map[Backend]bool
}

// startFleet spawns n backends and waits until each answers /readyz; on
// any failure it kills what it started.
func startFleet(spawn Spawn, n int) (*fleet, error) {
	f := &fleet{down: map[Backend]bool{}}
	for i := 0; i < n; i++ {
		b, err := spawn()
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
	}
	for _, b := range f.backends {
		if err := waitReady(b.URL(), 30*time.Second); err != nil {
			f.close()
			return nil, err
		}
	}
	logf("selftest: fleet up: %s", strings.Join(f.urls(), " "))
	return f, nil
}

func (f *fleet) urls() []string {
	out := make([]string, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.URL()
	}
	return out
}

func (f *fleet) byURL(url string) Backend {
	for _, b := range f.backends {
		if b.URL() == url {
			return b
		}
	}
	return nil
}

func (f *fleet) kill(b Backend) {
	b.Kill()
	f.down[b] = true
}

// drain stops every live backend gracefully at once and counts the ones
// that exited clean within 15s.
func (f *fleet) drain() (live, clean int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range f.backends {
		if f.down[b] {
			continue
		}
		live++
		wg.Add(1)
		go func(b Backend) {
			defer wg.Done()
			err := b.Drain(15 * time.Second)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				logf("selftest: backend %s did not drain clean: %v", b.URL(), err)
				return
			}
			clean++
		}(b)
	}
	wg.Wait()
	for _, b := range f.backends {
		f.down[b] = true
	}
	return live, clean
}

// close kills whatever is still running.
func (f *fleet) close() {
	for _, b := range f.backends {
		if !f.down[b] {
			f.kill(b)
		}
	}
}

// waitReady polls a backend's /readyz until it answers 200 or the
// deadline passes.
func waitReady(url string, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(end) {
			return fmt.Errorf("drill: backend %s never became ready (last error: %v)", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ServeProcess spawns backends by exec'ing this binary's own `serve`
// subcommand on an ephemeral port at (scale, seed, faults), and parses
// the bound address from its banner.
func ServeProcess(scale float64, seed int64, maxAdapters int, faults string) Spawn {
	args := []string{"serve", "-addr", "127.0.0.1:0", "-access-log", "",
		"-scale", fmt.Sprint(scale), "-seed", fmt.Sprint(seed), "-max-adapters", fmt.Sprint(maxAdapters)}
	if faults != "" {
		args = append(args, "-faults", faults)
	}
	return func() (Backend, error) {
		ann := &announceWriter{url: make(chan string, 1)}
		cmd := exec.Command(selfExe(), args...)
		cmd.Stdout = ann
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &proc{cmd: cmd, done: make(chan struct{})}
		go func() { p.err = cmd.Wait(); close(p.done) }()
		select {
		case p.url = <-ann.url:
			return p, nil
		case <-p.done:
			return nil, fmt.Errorf("drill: backend exited before announcing its address: %v", p.err)
		case <-time.After(30 * time.Second):
			p.Kill()
			return nil, fmt.Errorf("drill: backend did not announce its address within 30s")
		}
	}
}

func selfExe() string {
	if exe, err := os.Executable(); err == nil {
		return exe
	}
	return os.Args[0]
}

// proc is one subprocess backend.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	err  error // exit status, valid once done is closed
}

func (p *proc) URL() string { return p.url }

func (p *proc) Kill() {
	p.cmd.Process.Kill()
	<-p.done
}

func (p *proc) Drain(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		p.Kill()
		return fmt.Errorf("still running %s after SIGTERM", timeout)
	}
}

// announceWriter takes a serve process's stdout, delivers the bound base
// URL of its banner ("knowtrans serve on http://127.0.0.1:PORT (...)")
// once, and discards the rest so the child never blocks on a full pipe.
type announceWriter struct {
	buf  []byte
	url  chan string
	sent bool
}

func (w *announceWriter) Write(b []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, b...)
		s := string(w.buf)
		if i := strings.Index(s, "serve on http://"); i >= 0 {
			s = s[i+len("serve on "):]
			if j := strings.IndexAny(s, " \n"); j >= 0 {
				w.url <- s[:j]
				w.sent, w.buf = true, nil
			}
		}
	}
	return len(b), nil
}

// JobProcess crashes a job the way the job drill needs: it runs `job run`
// as a subprocess over the fleet, which SIGKILLs itself the instant the
// killAfter-th shard commit is durable — a real crash, no deferred
// cleanup. It returns the subprocess's exit error.
func JobProcess(replication int, seed int64) Crash {
	return func(ctx context.Context, specPath string, urls []string, checkpointDir string, killAfter int) error {
		cmd := exec.CommandContext(ctx, selfExe(), "job", "run",
			"-spec", specPath,
			"-backends", strings.Join(urls, ","),
			"-checkpoint", checkpointDir,
			"-replication", fmt.Sprint(replication),
			"-seed", fmt.Sprint(seed),
			"-kill-after-shards", fmt.Sprint(killAfter),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd.Run()
	}
}
