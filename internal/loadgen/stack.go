package loadgen

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"specweb/internal/checkpoint"
	"specweb/internal/estguard"
	"specweb/internal/httpspec"
	"specweb/internal/obs"
	"specweb/internal/overload"
	"specweb/internal/resilience/faults"
)

// buildStack stands up what the clients talk to: the external server at
// BaseURL, or the in-process server behind a handler transport. The
// returned cleanup removes whatever the stack put on disk.
func (r *run) buildStack() (cleanup func(), err error) {
	cfg := r.cfg
	cleanup = func() {}
	if cfg.BaseURL != "" {
		r.base = cfg.BaseURL
		r.hc = &http.Client{Transport: r.maybeFaulty(nil, nil)}
		return cleanup, nil
	}
	if rst := cfg.Restart; rst != nil && rst.Mode != RestartNone {
		// One durable store spans the crash: server A checkpoints into
		// it, server B recovers (or deliberately doesn't) from it. The
		// fingerprint binds frames to the workload identity.
		if rst.StateDir == "" {
			tmp, err := os.MkdirTemp("", "specweb-restart-")
			if err != nil {
				return nil, err
			}
			cleanup = func() { os.RemoveAll(tmp) }
			rst.StateDir = tmp
		}
		ecfg := httpspec.DefaultServerConfig().Engine
		ecfg.MaxRows = cfg.MaxRows
		ecfg.RowTopK = cfg.RowTopK
		fp := checkpoint.Combine(ecfg.StateFingerprint(),
			checkpoint.Fingerprint(fmt.Sprintf("loadgen/v1|profile=%s|seed=%d",
				cfg.Workload.Profile.Name, cfg.Seed)))
		r.ckstore, err = checkpoint.NewStore(checkpoint.StoreConfig{
			Dir: rst.StateDir, Fingerprint: fp, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			cleanup()
			return nil, err
		}
	}
	srv, err := r.newServer()
	if err != nil {
		cleanup()
		return nil, err
	}
	r.base = "http://specbench.invalid"
	var h http.Handler = srv
	if cfg.Restart != nil {
		// The swap point: clients keep their transport across the crash;
		// only the handler behind it is replaced.
		r.swap = newSwitchHandler(srv)
		h = r.swap
	}
	r.hc = &http.Client{Transport: r.maybeFaulty(NewHandlerTransport(h), obs.NewRegistry())}
	return cleanup, nil
}

// maybeFaulty wraps a transport with the seeded fault injector when any
// chaos knob is set.
func (r *run) maybeFaulty(rt http.RoundTripper, reg *obs.Registry) http.RoundTripper {
	if !r.cfg.Faults.Enabled() {
		return rt
	}
	fcfg := r.cfg.Faults
	fcfg.Metrics = reg
	return faults.New(fcfg).Transport(rt)
}

// vclock reads the virtual clock.
func (r *run) vclock() time.Time { return time.Unix(0, r.vnow.Load()) }

// newServer constructs a complete fresh stack — new registry, new engine,
// new guard — exactly as a restarted process would, and makes it the
// run's current server. The restart harness calls it a second time after
// the crash.
func (r *run) newServer() (*httpspec.Server, error) {
	cfg := r.cfg
	store := httpspec.NewSiteStore(r.site)
	scfg := httpspec.DefaultServerConfig()
	scfg.Mode = cfg.Mode
	scfg.MaxPush = cfg.MaxPush
	scfg.Engine.MaxRows = cfg.MaxRows
	scfg.Engine.RowTopK = cfg.RowTopK
	scfg.Metrics = obs.NewRegistry()
	scfg.Tracer = obs.NewTracer(64)
	if r.ckstore != nil {
		scfg.Engine.Checkpoint = r.ckstore
	}
	if cfg.Estguard {
		r.guard = estguard.New(estguard.Config{Seed: cfg.Seed, Metrics: scfg.Metrics})
		scfg.Engine.Guard = r.guard
		if r.led != nil {
			// Feed the snapshot judge from the shared client-side ledger:
			// its totals at each (sequential, warmup-phase) refresh are
			// deterministic.
			scfg.Engine.Feedback = func() (int64, int64, int64) {
				t := r.led.TotalsSnapshot()
				return t.Deliveries, t.Consumed, t.Wasted
			}
		}
	}
	if cfg.RealClock {
		scfg.Clock = nil // time.Now
	} else {
		scfg.Clock = r.vclock
		store.SetClock(r.vclock)
	}
	if cfg.Overload {
		ocfg := overload.Config{Clock: scfg.Clock, Metrics: scfg.Metrics}
		if cfg.AdmissionTune != nil {
			cfg.AdmissionTune(&ocfg)
		}
		scfg.Admission = overload.NewController(ocfg)
		scfg.Governor = overload.NewGovernor(overload.GovernorConfig{
			Clock:   scfg.Clock,
			Metrics: scfg.Metrics,
		})
	}
	if cfg.ServerTune != nil {
		cfg.ServerTune(&scfg)
	}
	srv, err := httpspec.NewServer(store, scfg)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	return srv, nil
}
