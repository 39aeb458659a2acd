# RFTP reproduction — common tasks.

GO ?= go

.PHONY: all build vet deps test race flake lint lint-json debugtest staticcheck vulncheck bench pullmode experiments cover loc check clean

all: build vet test

# check is the pre-merge gate: vet, the link-set gate, the custom
# analyzer suite, a full build, the whole test suite under the race
# detector (via race, so the package list is defined once), and the
# external scanners when they are installed.
check: vet deps build race lint staticcheck vulncheck

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite (lint fixtures under
# testdata/ and the benchmark's build directory excepted).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l . | grep -v -e /testdata/ -e '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# deps keeps the discrete-event simulator and the figure generators out
# of the shipping binaries: the protocol core must not import them.
deps:
	@out=$$($(GO) list -deps ./cmd/rftp ./cmd/rftpd \
		| grep -E '^rftp/internal/(sim|hostmodel|diskmodel|tcpmodel|gridftp|bench)$$'); \
	if [ -n "$$out" ]; then echo "rftp/rftpd link simulator packages:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs every package under the race detector. check depends on
# this target instead of repeating the invocation.
race:
	$(GO) test -race ./...

# flake hammers the packages whose tests run real goroutines against
# each other (verbs, the three fabrics, core) so a test that passes
# most runs is caught by the PR that introduces it.
flake:
	$(GO) test -race -count=20 ./internal/verbs ./internal/fabric/... ./internal/core

# lint runs RFTP's own static-analysis passes (fsmtransition,
# bufownership, lockorder, the flow-sensitive blockleak/msgexhaustive/
# fsmlive trio, ... — see internal/analysis). Any finding fails the
# build, as does a stale //lint:allow whose pass matched nothing;
# suppress real exceptions with //lint:allow <pass> <why>.
lint:
	$(GO) run ./cmd/rftplint -strict-allows ./...

# lint-json leaves the machine-readable findings/suppressions report CI
# uploads.
lint-json:
	$(GO) run ./cmd/rftplint -strict-allows -json ./... > rftplint.json

# debugtest runs the suite with the rftpdebug invariant layer compiled
# in (credit ledgers, sequence monotonicity, gauge sanity, buffer
# poisoning — see internal/invariant) under the race detector.
debugtest:
	$(GO) test -race -tags rftpdebug ./...

# staticcheck / vulncheck run when the tools are on PATH (CI installs
# them; offline dev machines may not have them) and are skipped with a
# notice otherwise.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench is a does-it-still-run smoke over the go-test benchmarks, one
# iteration each. The tracked performance ledger is benchmark/run.sh
# (see benchmark/README.md; `-compare A.jsonl B.jsonl` diffs two runs).
bench:
	$(GO) test -bench . -benchmem -benchtime 1x . ./internal/fabric/netfabric

# pullmode runs the pull-mode shape regression (pull >= push at a
# saturated source, hybrid within 5% of the best fixed mode) and
# leaves the ablation matrix as ablation-pullmode.json for CI to
# upload.
pullmode:
	$(GO) test -run TestAblationPullModeShape -v ./internal/bench
	$(GO) run ./cmd/experiments -scale 0.125 -json ablation-pullmode.json ablation-pullmode

# Report-quality regeneration of every table and figure (~1 minute).
experiments:
	$(GO) run ./cmd/experiments -scale 1.0 -csv results_full.csv all | tee results_full.txt

cover:
	$(GO) test -cover ./internal/...

# loc prints non-test, non-blank, non-comment Go lines per package and
# in total (benchmark/ and testdata/ excluded) — the measure simplicity
# PRs quote before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.bench_build/*' \
		| xargs grep -Hvc -e '^[[:space:]]*//' -e '^[[:space:]]*$$' \
		| awk -F: '{ d = $$1; sub("/[^/]*$$", "", d); c[d] += $$2; t += $$2 } \
			END { for (d in c) printf "%6d  %s\n", c[d], d; printf "%6d  total\n", t }' \
		| sort -k2

clean:
	$(GO) clean ./...
