// Command tsigd runs the networked threshold-signing service: signer
// daemons that each hold one private key share, and the coordinator
// gateway that fans client requests out to them.
//
// # Fully distributed lifecycle (no trusted dealer anywhere)
//
// Every daemon keeps its key material in one place, the multi-tenant
// keystore named by -keystore-dir (required). Daemons can start with
// ZERO key material and generate it themselves by running the
// distributed keygen over the wire — each share is born on its own
// daemon and never leaves it:
//
//	tsigd signer      -keystore-dir /var/lib/tsig -index 1 -listen :8071
//	...               (one keyless daemon per server, indices 1..n)
//	tsigd coordinator -keystore-dir /var/lib/tsig-coord -listen :9090 \
//	    -signers http://host1:8071,...,http://host5:8075
//
//	tsigcli keygen  -remote http://coordinator:9090 -t 2 -domain my-app -dir keys/
//	tsigcli sign    -remote http://coordinator:9090 -msg "hello" -out final.sig
//	tsigcli refresh -remote http://coordinator:9090 -group keys/group.json
//
// The keygen run drives Pedersen's DKG across the signers (one broadcast
// round in the fault-free case), each daemon persists its share in its
// keystore, the coordinator persists the public group in its own, and
// the quorum immediately serves signatures. The refresh run
// re-randomizes every share in place (Section 3.3) without changing the
// public key; restarts serve the refreshed epoch.
//
// # Seeding from dealer files
//
// A pre-generated keystore (tsigcli keygen -n 5 -t 2 -dir keys/) seeds
// the default group:
//
//	tsigd signer      -keystore-dir /var/lib/tsig -group keys/group.json -share keys/share-1.json -listen :8071
//	...
//	tsigd coordinator -keystore-dir /var/lib/tsig-coord -group keys/group.json -listen :9090 \
//	    -signers http://host1:8071,http://host2:8072,...
//
// Seed files are installed only while the keystore holds no default
// group. Afterwards the keystore wins: the same key there (perhaps
// refreshed since) is served and the files are ignored, and a different
// key is a startup error. Seeding is also how a directory written by the
// retired -keystore DIR mode migrates: pass its group.json and
// share-<i>.json once.
//
// Clients then obtain full signatures with a single request:
//
//	tsigcli sign -remote http://coordinator:9090 -msg "hello" -out final.sig
//	tsigcli sign -remote http://coordinator:9090 -batch "msg one" "msg two"
//
// The coordinator also serves POST /v1/sign-batch (many messages, one
// request), and -batch-window makes it merge concurrent single-message
// requests into one batched fan-out per signer.
//
// Because partial signing is non-interactive and deterministic, signers
// never talk to one another and keep no per-request state; the service
// tolerates up to t signers being down, slow, or Byzantine. During
// protocol sessions (keygen, refresh) the coordinator relays the round
// messages between signers, private shares included, and reads them.
// tsigd speaks plain HTTP — it has no TLS option — and a signer serves
// every route to whoever reaches its port, coordinator or not: anyone
// who can reach t+1 signers can sign, and anyone who can reach one can
// delete its tenants. Run the signers on a network only the coordinator
// can reach.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	tsig "repro"
	"repro/service"
	"repro/service/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "signer":
		err = cmdSigner(os.Args[2:])
	case "coordinator":
		err = cmdCoordinator(os.Args[2:])
	case "-version", "--version", "version":
		b := service.Build()
		fmt.Printf("tsigd %s %s (%s)\n", b.Version, b.Revision, b.GoVersion)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsigd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tsigd {signer|coordinator|-version} [flags]")
	os.Exit(2)
}

// logFlags holds the observability flags shared by both subcommands.
type logFlags struct {
	format, level string
	debugAddr     string
}

func addLogFlags(fs *flag.FlagSet) *logFlags {
	lf := &logFlags{}
	fs.StringVar(&lf.format, "log-format", "text", "log output format: text or json")
	fs.StringVar(&lf.level, "log-level", "info", "minimum log level: debug, info, warn, error (request-scoped lines log at debug)")
	fs.StringVar(&lf.debugAddr, "debug-addr", "", "separate listen address for /debug/pprof/ and /metrics (empty disables; /metrics is also on the main listener)")
	return lf
}

// logger builds the daemon's slog.Logger from the parsed flags.
func (lf *logFlags) logger() (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(lf.level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", lf.level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch lf.format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", lf.format)
	}
	return slog.New(h), nil
}

// startDebug serves pprof and the daemon's metrics on a separate
// listener, keeping the profiling endpoints off the public service port.
// Best-effort: a debug listener that cannot bind logs and stays down
// rather than failing the daemon.
func (lf *logFlags) startDebug(metrics http.Handler, logger *slog.Logger) {
	if lf.debugAddr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: lf.debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("debug listener failed", "addr", lf.debugAddr, "error", err)
		}
	}()
	logger.Info("debug listener serving pprof and metrics", "addr", lf.debugAddr)
}

func cmdSigner(args []string) error {
	fs := flag.NewFlagSet("signer", flag.ExitOnError)
	keystoreDir := fs.String("keystore-dir", "", "keystore directory (required): the group registry and every tenant's key material, where keygen and refresh results are persisted")
	groupPath := fs.String("group", "group.json", "seed group file, read with -share")
	sharePath := fs.String("share", "", "seed share file: with -group, installed as the default group's key material when the keystore holds none")
	index := fs.Int("index", 0, "this daemon's 1-based player index (required without -share; otherwise taken from the share)")
	listen := fs.String("listen", ":8071", "listen address")
	workers := fs.Int("workers", 0, "max concurrent signing operations (0 = default)")
	queue := fs.Int("queue", 0, "max requests waiting for a worker (0 = default)")
	maxBatch := fs.Int("max-batch", 0, "max messages per /v1/sign-batch request (0 = default)")
	sessionTTL := fs.Duration("session-ttl", 0, "protocol session GC timeout (0 = default 2m)")
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lf.logger()
	if err != nil {
		return fmt.Errorf("signer: %w", err)
	}
	if *keystoreDir == "" {
		return fmt.Errorf("signer: -keystore-dir is required")
	}
	reg, err := registry.Open(registry.Config{Dir: *keystoreDir})
	if err != nil {
		return fmt.Errorf("signer: opening keystore dir: %w", err)
	}
	cfg := service.DaemonConfig{
		Signer: service.SignerConfig{
			MaxWorkers: *workers, MaxQueue: *queue, MaxBatch: *maxBatch,
		},
		Index:      *index,
		SessionTTL: *sessionTTL,
		Registry:   reg,
		Logger:     logger,
	}
	if *sharePath != "" {
		// LoadMember validates the pair as a whole (group invariants plus
		// share bounds), so a corrupt or mismatched seed fails here.
		if cfg.Member, err = tsig.LoadMember(*groupPath, *sharePath); err != nil {
			return err
		}
	}

	signer, err := service.NewDaemonSigner(cfg)
	if err != nil {
		if *sharePath != "" {
			return fmt.Errorf("signer: seeding from %s and %s: %w", *groupPath, *sharePath, err)
		}
		return err
	}
	lf.startDebug(signer.Metrics(), logger)
	if g := signer.Group(); g != nil {
		logger.Info("signer listening",
			"component", "signer", "signer", signer.Index(), "addr", *listen,
			"n", g.N, "t", g.T, "domain", g.Domain)
	} else {
		logger.Info("signer listening (keyless)",
			"component", "signer", "signer", signer.Index(), "addr", *listen)
	}
	return serve(*listen, signer, logger)
}

func cmdCoordinator(args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	keystoreDir := fs.String("keystore-dir", "", "keystore directory (required): the group registry and every tenant's public group, where keygen and refresh results are persisted")
	groupPath := fs.String("group", "group.json", "seed group file, read when present: installed as the default group when the keystore holds none")
	signers := fs.String("signers", "", "comma-separated signer base URLs, in share order (1..n)")
	listen := fs.String("listen", ":9090", "listen address")
	timeout := fs.Duration("timeout", 5*time.Second, "per-signer request timeout")
	protoTimeout := fs.Duration("proto-timeout", 0, "per-signer protocol round timeout for keygen/refresh runs (0 = default 10s)")
	cache := fs.Int("cache", 0, "signature LRU cache size in entries (0 = default, negative disables); memory follows the entries held, about 235 bytes each, not this bound")
	batchWindow := fs.Duration("batch-window", 0,
		"collect concurrent sign requests for this long and fan them out as one batch (0 disables)")
	maxBatch := fs.Int("max-batch", 0, "max messages per batch (0 = default)")
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := lf.logger()
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	if *signers == "" {
		return fmt.Errorf("coordinator: -signers is required")
	}
	if *keystoreDir == "" {
		return fmt.Errorf("coordinator: -keystore-dir is required")
	}
	urls := strings.Split(*signers, ",")
	for i := range urls {
		urls[i] = strings.TrimRight(strings.TrimSpace(urls[i]), "/")
	}
	reg, err := registry.Open(registry.Config{Dir: *keystoreDir})
	if err != nil {
		return fmt.Errorf("coordinator: opening keystore dir: %w", err)
	}
	cfg := service.CoordinatorConfig{
		SignerTimeout: *timeout, CacheSize: *cache,
		BatchWindow: *batchWindow, MaxBatch: *maxBatch,
		ProtoRoundTimeout: *protoTimeout,
		Registry:          reg,
		Logger:            logger,
	}

	var coord *service.Coordinator
	group, err := tsig.LoadGroup(*groupPath)
	switch {
	case err == nil:
		if coord, err = service.NewCoordinator(group, urls, cfg); err != nil {
			return fmt.Errorf("coordinator: seeding from %s: %w", *groupPath, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// No seed: serve whatever the keystore holds, or start keyless and
		// wait for a remote keygen run (tsigcli keygen -remote).
		if coord, err = service.NewKeylessCoordinator(urls, cfg); err != nil {
			return err
		}
	default:
		return err
	}
	lf.startDebug(coord.Metrics(), logger)
	if g := coord.Group(); g != nil {
		logger.Info("coordinator listening",
			"component", "coordinator", "addr", *listen, "backends", len(urls),
			"n", g.N, "t", g.T, "domain", g.Domain)
	} else {
		logger.Info("coordinator listening (keyless); POST /v1/proto/dkg/run to generate a key",
			"component", "coordinator", "addr", *listen, "backends", len(urls))
	}
	return serve(*listen, coord, logger)
}

// serve runs an HTTP server until SIGINT/SIGTERM, then drains it.
func serve(addr string, handler http.Handler, logger *slog.Logger) error {
	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sigc:
		logger.Info("received signal, shutting down", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
