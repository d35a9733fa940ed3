// Package cli is the harness the cmd/ binaries share: the flags every
// command takes, the placement-search flag group, the measurement-engine
// flags, and a batch run's telemetry lifecycle — logger, registry, tracer,
// RunReport, the optional observability plane, and the final emit.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// Common is the flag group every command takes.
type Common struct {
	Tool      string
	Seed      int64
	Trace     string
	LogFormat string
	LogLevel  string
}

// Bind registers -seed, -trace, -log-format and -log-level on fs. The
// seed keeps the command's own default (c.Seed) and help text.
func (c *Common) Bind(fs *flag.FlagSet, seedHelp string) {
	fs.Int64Var(&c.Seed, "seed", c.Seed, seedHelp)
	fs.StringVar(&c.Trace, "trace", "", "write recorded spans as JSON to this file ('-' for stdout)")
	fs.StringVar(&c.LogFormat, "log-format", obs.LogText, "log format: text or json")
	fs.StringVar(&c.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
}

// NewLogger builds the command's structured logger from -log-format and
// -log-level. A bad value exits 1 with "<tool>: <reason>" on stderr.
func (c *Common) NewLogger() *slog.Logger {
	l, err := obs.FlagLogger(c.LogFormat, c.LogLevel, c.Tool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.Tool, err)
		os.Exit(1)
	}
	return l
}

// WorkersVar registers -workers on fs, bound to p.
func WorkersVar(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "workers", 0, "measurement batch workers (0 = GOMAXPROCS, 1 = serial; results are identical either way)")
}

// Search is the placement-search flag group.
type Search struct {
	Iters    int
	Restarts int // 0 = the caller's search default
	Cells    int // 0 = adaptive, 1 = flat
	Exchange int // 0 = Iters
}

// Bind registers the group on fs under prefix ("" gives -iters, "search-"
// gives -search-iters), with s's current values as the defaults.
func (s *Search) Bind(fs *flag.FlagSet, prefix string) {
	fs.IntVar(&s.Iters, prefix+"iters", s.Iters, "annealing iterations")
	fs.IntVar(&s.Restarts, prefix+"restarts", s.Restarts, "independent annealing restarts, run in parallel (0 = search default)")
	fs.IntVar(&s.Cells, prefix+"cells", s.Cells, "shard hosts into this many cells for the hierarchical search (0 = size adaptively from the host count, 1 = flat)")
	fs.IntVar(&s.Exchange, prefix+"exchange", s.Exchange,
		fmt.Sprintf("cross-cell exchange proposals after the cell phase (0 = %siters; needs %scells > 1)", prefix, prefix))
}

// Apply copies the group into cfg. Restarts overrides cfg's own default
// only when positive, and Cells == 0 sizes the decomposition from the
// host count and GOMAXPROCS.
func (s Search) Apply(cfg *placement.Config, numHosts int) {
	cfg.Iterations = s.Iters
	if s.Restarts > 0 {
		cfg.Restarts = s.Restarts
	}
	cfg.Cells = s.Cells
	if s.Cells == 0 {
		cfg.Cells = placement.AdaptiveCells(numHosts, runtime.GOMAXPROCS(0))
	}
	cfg.ExchangeIters = s.Exchange
}

// Run is one invocation of a batch tool: its flags and the telemetry
// lifecycle that Start, SetReady, Emit and Stop drive. Every field below
// the flags is valid after Start.
type Run struct {
	Common
	Metrics   string
	Listen    string // "" = no observability plane
	Workers   int
	CachePath string // "" = no persisted measurement cache

	Logger   *slog.Logger
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	Report   *telemetry.RunReport
	Bus      *obs.Bus

	srv   *obs.Server
	plane *obs.Running
}

// NewRun binds a batch tool's shared flags on fs: the Common group and
// -metrics.
func NewRun(fs *flag.FlagSet, tool string, seed int64, seedHelp string) *Run {
	r := &Run{Common: Common{Tool: tool, Seed: seed}}
	r.Common.Bind(fs, seedHelp)
	fs.StringVar(&r.Metrics, "metrics", "", "write a JSON RunReport (metrics snapshot) to this file ('-' for stdout)")
	return r
}

// BindListen registers -listen, which serves the observability plane for
// the duration of the run.
func (r *Run) BindListen(fs *flag.FlagSet) {
	fs.StringVar(&r.Listen, "listen", "", "serve the observability plane (/metrics, /healthz, /readyz, /api/*, /debug/pprof/) on this address for the duration of the run, e.g. :9090")
}

// BindMeasure registers -workers and -measure-cache.
func (r *Run) BindMeasure(fs *flag.FlagSet) {
	WorkersVar(fs, &r.Workers)
	fs.StringVar(&r.CachePath, "measure-cache", "", "persist the measurement cache to this JSON file (loaded at start, saved at exit)")
}

// Start builds the logger (exiting 1 on a bad -log-format or -log-level),
// the registry with its build-info metric, the tracer, the RunReport and
// the event bus, and serves the plane when -listen is set. The plane
// answers /readyz with 503 until SetReady.
func (r *Run) Start() {
	r.Logger = r.NewLogger()
	r.Registry = telemetry.NewRegistry()
	r.Tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	telemetry.RegisterBuildInfo(r.Registry)
	r.Report = telemetry.NewRunReport(r.Tool, r.Seed, os.Args[1:])
	r.Bus = obs.NewBus(obs.DefaultBusBuffer)
	if r.Listen == "" {
		return
	}
	r.srv = obs.New(obs.Options{Registry: r.Registry, Tracer: r.Tracer, Report: r.Report, Bus: r.Bus, Logger: r.Logger})
	plane, err := r.srv.Start(r.Listen)
	if err != nil {
		r.Fatal(err)
	}
	r.plane = plane
}

// SetReady flips the plane's /readyz to 200; without -listen it does
// nothing.
func (r *Run) SetReady() {
	if r.srv != nil {
		r.srv.SetReady(true)
	}
}

// Stop takes the plane down, waiting at most 2 seconds for in-flight
// requests.
func (r *Run) Stop() {
	if r.plane == nil {
		return
	}
	r.srv.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := r.plane.Shutdown(ctx); err != nil {
		r.Logger.Warn("plane shutdown", "err", err)
	}
}

// Emit writes the -metrics RunReport and the -trace span dump, exiting 1
// when either cannot be written.
func (r *Run) Emit() {
	if err := telemetry.Emit(r.Report, r.Registry, r.Tracer, r.Metrics, r.Trace); err != nil {
		r.Fatal(err)
	}
}

// LoadCache merges the -measure-cache file into c, exiting 1 on a file
// that cannot be read or decoded. Without the flag it does nothing.
func (r *Run) LoadCache(c *measure.Cache) {
	if r.CachePath == "" {
		return
	}
	if err := c.LoadFile(r.CachePath); err != nil {
		r.Fatal(err)
	}
}

// SaveCache logs c's hit, miss and entry counts and writes c to the
// -measure-cache file when one is set.
func (r *Run) SaveCache(c *measure.Cache) {
	r.Logger.Info("measurement cache", "hits", c.Hits(), "misses", c.Misses(), "entries", c.Len())
	if r.CachePath == "" {
		return
	}
	if err := c.SaveFile(r.CachePath); err != nil {
		r.Fatal(err)
	}
	r.Logger.Info("measurement cache saved", "path", r.CachePath)
}

// Fatal logs err and exits 1.
func (r *Run) Fatal(err error) {
	r.Logger.Error("fatal", "err", err)
	os.Exit(1)
}
