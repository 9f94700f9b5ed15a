// Command dqmcd serves DQMC simulations over a versioned HTTP/JSON job API.
// A job is one canonical Config document plus a shard count; shards are
// independent Markov chains executed on a bounded worker pool, aggregated as
// they land and cached by the deterministic Config content hash.
//
// Usage:
//
//	dqmcd [-addr 127.0.0.1:8517] [-workers N] [-cache N]
//	      [-ckptdir DIR] [-maxrestarts 3] [-retain 512]
//
// Endpoints (all documents carry schema_version):
//
//	POST   /v1/jobs               submit {config, shards, tag, no_cache}
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          status (shard progress, partial estimate)
//	GET    /v1/jobs/{id}/result   merged result (202 while in flight)
//	POST   /v1/jobs/{id}/cancel   stop at the next sweep boundary
//	GET    /v1/jobs/{id}/stream   chunked JSON-lines event feed
//	GET    /v1/healthz            liveness probe
//	GET    /v1/stats              service counters
//
// SIGINT/SIGTERM drains gracefully: in-flight shards checkpoint and stop at
// the next sweep boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"questgo"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "dqmcd:", err)
		os.Exit(1)
	}
}

// parseFlags maps the command line onto the listen address and the server
// options; a flag left out keeps the server's own default.
func parseFlags(args []string) (addr string, opts questgo.ServerOptions) {
	fs := flag.NewFlagSet("dqmcd", flag.ExitOnError)
	fs.StringVar(&addr, "addr", "127.0.0.1:8517", "listen address")
	fs.IntVar(&opts.Workers, "workers", 0, "worker pool size (0 = NumCPU)")
	fs.IntVar(&opts.CacheSize, "cache", 0, "result cache capacity in entries (0 = the larger of 256 and -retain; negative disables)")
	fs.StringVar(&opts.CheckpointDir, "ckptdir", "", "shard checkpoint directory (empty = private temp dir)")
	fs.IntVar(&opts.MaxRestarts, "maxrestarts", 3, "max resume attempts per shard before the job fails")
	fs.IntVar(&opts.RetainJobs, "retain", 512, "finished jobs kept for status/result reads (negative retains all)")
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited
	return addr, opts
}

func run(addr string, opts questgo.ServerOptions) error {
	svc, err := questgo.NewServer(opts)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	//qmc:allow goleak -- exits when Shutdown/Close below makes ListenAndServe return; errc is buffered so the send never blocks
	go func() { errc <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("dqmcd: serving on http://%s (workers=%d)\n", addr, svc.Workers())

	select {
	case err := <-errc:
		_ = svc.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("dqmcd: draining (in-flight shards checkpoint at the next sweep boundary)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := httpSrv.Shutdown(shutCtx)
	cerr := svc.Close()
	if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return cerr
}
