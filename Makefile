# RFTP reproduction — common tasks.

GO ?= go

.PHONY: all build vet deps test race flake lint lint-json debugtest staticcheck vulncheck golden golden-update pullmode experiments cover loc check clean

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
# bufownership, loopconfine and the flow-sensitive blockleak/
# msgexhaustive/fsmlive trio — see internal/analysis). Any finding
# fails the build, as does a stale //lint:allow (its pass matched
# nothing, or it names no pass); suppress real exceptions with
# //lint:allow <pass> <why>.
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

# golden diffs every model output of the simulated testbeds (a small
# -scale run of every experiment, ~2 minutes) against
# testdata/experiments.golden, so a refactor that moves a model number
# fails here. The allocs/op and mem/sess columns measure the Go heap,
# not the model, and vary run to run: golden-mask blanks them, cutting
# at each table's own header offsets so a wider value cannot shift the
# columns after it (µ becomes u first, keeping offsets in bytes). A PR
# that changes a model output on purpose runs golden-update and commits
# the diff.
GOLDEN_RUN = $(GO) run ./cmd/experiments -scale 0.03 all
define golden-mask
sed 's/µ/u/g' | awk '/^figure /{ a = index($$0, "allocs/op"); c = index($$0, "copied/op"); m = index($$0, "mem/sess"); s = index($$0, "top-stall") } /^(==|$$)/{ a = 0 } a { $$0 = substr($$0, 1, a - 1) "#  " substr($$0, c, m - c) "#  " substr($$0, s) } { print }'
endef

golden:
	@out=$$($(GOLDEN_RUN)) && printf '%s\n' "$$out" | $(golden-mask) | diff -u testdata/experiments.golden - \
		&& echo "golden: model outputs unchanged"

golden-update:
	@out=$$($(GOLDEN_RUN)) && printf '%s\n' "$$out" | $(golden-mask) > testdata/experiments.golden

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
