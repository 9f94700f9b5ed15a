#!/bin/sh
# Regenerates every table and figure of the paper into results/.
# Default parameters are scaled for a laptop core (minutes); pass
# PAPER_SCALE=1 for the paper's sizes (hours).
set -e
cd "$(dirname "$0")"
mkdir -p results

echo "== Verify: fmt, vet, qmclint, race tests, kernel series"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
go vet ./...
# All 9 analyzers over the whole tree; any finding exits 1, a package that
# does not type-check exits 2. (The wire-document lock is not here: it is
# TestWireLocked in tier-1, `go test ./...`.)
go run ./cmd/qmclint ./...
go test -race ./internal/parallel/ ./internal/blas/ ./internal/update/ ./internal/greens/ ./internal/obs/ ./internal/autopilot/ ./internal/core/ ./internal/gpu/... ./internal/service/ ./internal/analysis/
# Oversubscribed (4 Ps on this 2-CPU box): the regime where a careless spin
# loop in the pool's hand-off starves its own task. -count=1 because the test
# cache does not key on GOMAXPROCS.
GOMAXPROCS=4 go test -count=1 -race ./internal/parallel/ ./internal/update/
# Two Ps: the only mode in which a residual check started beside the sweep
# holds the single pool worker, so every fork meanwhile falls back to the
# caller (at 4 a second worker hides that path).
GOMAXPROCS=2 go test -count=1 -race ./internal/parallel/ ./internal/update/
# One Results document per execution mode, with the race detector watching
# the spin fork and the GEMM pool at every GOMAXPROCS the test sets.
GOMAXPROCS=4 go test -count=1 -race -run 'TestResultsBitwiseAcrossModes$' ./internal/service/
echo "== Verify: qmcdebug sanitizer build (NaN/Inf scans, drift asserts, pool bookkeeping)"
go test -tags qmcdebug ./internal/...
# go list honours GOFLAGS, so this lints the files the default build hides
# (check_on.go, mat/scratch_debug.go, lapack/pool_debug.go).
GOFLAGS=-tags=qmcdebug go run ./cmd/qmclint ./internal/...
# The portable 4x4 micro-kernel and the Go axpy/dot/pack loops never execute
# on full panels on an amd64 box otherwise; the consumers ride along because
# their rounding differs from the FMA kernels'.
echo "== Verify: portable micro-kernel build (-tags purego)"
go test -tags purego ./internal/blas/ ./internal/lapack/ ./internal/greens/ ./internal/update/
# ... and gemm_generic.go is invisible to hotalloc/poolpair/nakedpanic otherwise.
GOFLAGS=-tags=purego go run ./cmd/qmclint ./internal/blas ./internal/lapack ./internal/mat
echo "== Verify: fuzz kernels against reference implementations, checkpoint decode (10s each)"
go test ./internal/blas/ -run NoSuchTest -fuzz 'FuzzGemmPackedVsNaive$' -fuzztime 10s
go test ./internal/blas/ -run NoSuchTest -fuzz 'FuzzVecKernels$' -fuzztime 10s
go test ./internal/lapack/ -run NoSuchTest -fuzz 'FuzzQRReconstruct$' -fuzztime 10s
go test ./internal/lapack/ -run NoSuchTest -fuzz 'FuzzGetrf$' -fuzztime 10s
go test ./internal/lapack/ -run NoSuchTest -fuzz 'FuzzQRPBlockedVsLevel2$' -fuzztime 10s
go test ./internal/core/ -run NoSuchTest -fuzz 'FuzzResumeCheckpoint$' -fuzztime 10s
# The multi-size kernel series. 16 and 36 are the sizes service jobs run at
# (4x4, and 6x6 with partial tiles), 144 the benchmark's large_dense.
# (Blocked QRP >= level-2 at N=512 is TestQRPBlockedNotSlowerThanLevel2 in
# tier-1.)
go run ./cmd/figures -fig=1 -sizes 16,36,64,128,144,256,512,1024 -reps 2 -json BENCH_gemm.json
echo "== Verify: metrics instrumentation overhead gate (<2% on the sweep hot path)"
go run ./cmd/sweep -obscheck
# The command-graph/multi-device and service-cache gates are tests the
# qmcdebug pass above already ran: TestGraphLaunchAmortization,
# TestModeledClockGolden, TestSweeperDeviceAndGraphInvariance, TestCacheHit.

if [ "${PAPER_SCALE:-0}" = "1" ]; then
    KSIZES=128,256,384,512,768,1024
    ACC="-nx 16 -l 160 -evals 1000"
    GSIZES=256,400,576,784,1024
    SSIZES=256,400,576,784,1024
    FSIZES=16,20,24,28,32
    FPARAMS="-beta 32 -l 160 -warm 1000 -meas 2000"
    GPUSIZES=256,400,576,784,1024
else
    KSIZES=128,256,512,1024
    ACC="-nx 8 -l 40 -evals 100"
    GSIZES=64,144,256
    SSIZES=16,36,64,100
    FSIZES=8,12
    FPARAMS="-beta 5 -l 25 -warm 60 -meas 150"
    GPUSIZES=64,144,256,576,1024
fi

echo "== Figure 1: kernel throughput" && go run ./cmd/figures -fig=1 -sizes $KSIZES -reps 2 | tee results/fig1.txt
echo "== Figure 2: Alg2 vs Alg3 accuracy" && go run ./cmd/figures -fig=2 $ACC | tee results/fig2.txt
echo "== Figures 3/4: Green's evaluation" && go run ./cmd/figures -fig=3 -sizes $GSIZES -l 40 | tee results/fig34.txt
echo "== Figures 5: momentum distribution (path)" && go run ./cmd/figures -fig=5 -sizes $FSIZES $FPARAMS -out results | tee results/fig5.txt
echo "== Figure 6: momentum distribution (grid)" && go run ./cmd/figures -fig=6 -sizes $FSIZES $FPARAMS -out results | tee results/fig6.txt
echo "== Figure 7: spin correlations" && go run ./cmd/figures -fig=7 -sizes $FSIZES -u 4 $FPARAMS -out results | tee results/fig7.txt
echo "== Figure 8 + Table I: scaling and profile" && go run ./cmd/figures -fig=8 -sizes $SSIZES -l 24 -warm 10 -meas 20 | tee results/fig8_table1.txt
echo "== Figure 9: simulated-GPU clustering/wrapping" && go run ./cmd/figures -fig=9 -sizes $GPUSIZES | tee results/fig9.new
# Figure 9 is pure modeled clock: at the default sizes it must reproduce the
# committed table byte for byte (a difference means the cost model or the op
# order moved and results/fig9.txt + EXPERIMENTS.md are stale).
[ "${PAPER_SCALE:-0}" = "1" ] || cmp results/fig9.new results/fig9.txt
mv results/fig9.new results/fig9.txt
echo "== Figure 10: hybrid Green's evaluation" && go run ./cmd/figures -fig=10 -sizes $GSIZES -l 40 | tee results/fig10.txt
echo "== done; see results/"
