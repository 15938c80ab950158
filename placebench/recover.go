package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"dynplace/internal/daemon"
	"dynplace/internal/store"
)

// recoveries is how many fresh daemons recover from copies of one
// killed daemon's state directory; recover_s is their median.
const recoveries = 15

// stateDir is a fresh state directory inside the checkout.
func (rd *round) stateDir(tag string) (string, error) {
	dir := filepath.Join(".bench_build", "state", fmt.Sprintf("%s-%d-%d-%s", rd.r.w.name, rd.r.seed, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// send serves one in-process request and returns the status and body.
func send(h http.Handler, method, path string, body any) (int, []byte) {
	var payload []byte
	if body != nil {
		payload, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(payload)))
	return rec.Code, rec.Body.Bytes()
}

// recoverFrom times fresh daemons recovering from copies of a killed
// daemon's state directory, in process CPU time so that waits for the
// shared disk do not dominate, and checks that each serves a placement
// byte-identical to the one the killed daemon last served.
func (rd *round) recoverFrom(dir string, cfg func() daemon.Config, want []byte) error {
	for i := 0; i < recoveries; i++ {
		cp := fmt.Sprintf("%s.copy%d", dir, i)
		if err := copyDir(dir, cp); err != nil {
			return err
		}
		end := rd.tr.begin("store.recover")
		c0 := cpuTime()
		st, err := store.Open(cp)
		var d *daemon.Daemon
		if err == nil {
			c := cfg()
			c.Store = st
			if d, err = daemon.New(c); err == nil {
				err = d.Recover()
			}
		}
		dt := cpuTime() - c0
		end()
		rd.r.acct.note("recover", err == nil)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", cp, err)
		}
		rd.recoverS.add(dt.Seconds(), rd.since())
		rd.lay.add("store.replay_records", float64(d.Durability().ReplayedRecords))
		code, got := send(d.Handler(), http.MethodGet, "/v1/placement", nil)
		rd.r.acct.note("api GET placement", code == http.StatusOK)
		if !bytes.Equal(got, want) {
			rd.r.failCheck("placement after recovery %d differs from the one served before the kill (%d vs %d bytes)", i+1, len(got), len(want))
		}
		if err := st.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(cp); err != nil {
			return err
		}
		rd.calibrateNow()
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// killAndRecover ends a durable round: the daemon is dropped without
// Shutdown (its store closed as a dying process's files would be), and
// fresh daemons recover from its state directory.
func (rd *round) killAndRecover(dir string, st *store.Store, cfg func() daemon.Config) error {
	want, err := rd.call("placement", http.MethodGet, "/v1/placement", nil)
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := rd.recoverFrom(dir, cfg, want); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// shadowRecovery gives a store-less workload a restart figure: a
// durable daemon with the same cluster receives the workload's
// registrations through its API, runs the given number of cycles (so
// the WAL holds cycle records as well) and is killed; fresh daemons then
// recover from its state directory. Its calls are not part of the
// workload's API timings.
func (rd *round) shadowRecovery(cfg func() daemon.Config, register func(h http.Handler) error, cycles int) error {
	dir, err := rd.stateDir("shadow")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	c := cfg()
	c.Store = st
	// No periodic snapshot: every record stays in the WAL for replay.
	c.SnapshotEvery = -1
	d, err := daemon.New(c)
	if err == nil {
		err = d.Recover()
	}
	if err == nil {
		err = register(d.Handler())
	}
	if err == nil {
		err = d.Start()
	}
	rd.r.acct.note("shadow daemon", err == nil)
	if err != nil {
		st.Close()
		return fmt.Errorf("shadow daemon: %w", err)
	}
	clk := c.Clock.(*daemon.SimClock)
	clk.Advance(0)
	for k := 1; k < cycles; k++ {
		clk.Advance(c.CycleSeconds)
	}
	code, want := send(d.Handler(), http.MethodGet, "/v1/placement", nil)
	rd.r.acct.note("api GET placement", code == http.StatusOK)
	if err := st.Close(); err != nil {
		return err
	}
	if err := rd.recoverFrom(dir, cfg, want); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// registerVia returns a register function that replays the given
// requests through any daemon's handler, failing on the first refusal.
func registerVia(acct accounting, reqs []apiReq) func(h http.Handler) error {
	return func(h http.Handler) error {
		for _, q := range reqs {
			code, body := send(h, q.method, q.path, q.body)
			ok := code/100 == 2
			acct.note("shadow api "+q.method+" "+q.kind, ok)
			if !ok {
				return fmt.Errorf("%s %s: %d %s", q.method, q.path, code, body)
			}
		}
		return nil
	}
}

// apiReq is one registration request a workload sends at set-up.
type apiReq struct {
	kind, method, path string
	body               any
}
