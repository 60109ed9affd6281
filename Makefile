# Developer entry points. `make verify` mirrors the tier-1 CI gate in
# .github/workflows/verify.yml exactly — run it before pushing.

RACE_PKGS := ./internal/obs ./internal/enclave ./internal/store ./internal/audit ./internal/core ./internal/cache ./internal/journal ./internal/pfs ./internal/pae ./internal/dedup ./internal/enctls ./internal/client

.PHONY: verify build test vet race bench bench-smoke bench-build chaos-smoke drain-smoke crash-smoke fuzz-smoke tcb advisory

verify: build test vet race bench-build

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race $(RACE_PKGS)

# Scaled-down benchmark sweep (see EXPERIMENTS.md for full commands).
bench:
	go run ./cmd/segshare-bench -exp all

# One iteration of every data-path benchmark — compile-and-run coverage
# for the crypto pipeline, not a measurement. Mirrors the bench-smoke CI
# job.
bench-smoke:
	go test -bench=. -benchtime=1x ./internal/pfs ./internal/pae ./internal/bench

# benchmark/ is its own module (BENCHMARK.json's ledger), outside
# `go build ./...` above: vet and test it against this tree so a deleted
# or renamed export it pins fails here. Mirrors the bench-build CI step.
bench-build:
	go -C benchmark vet ./...
	go -C benchmark test ./...

# Deterministic chaos pass under -race: the brownout recovery contract
# (degraded read-only mode, breaker lifecycle, audit evidence, the audit
# store outside the gate), the server's always-on store wrapper and the
# resilient-wrapper unit suite. Mirrors the chaos-smoke CI job.
chaos-smoke:
	go test -race -run 'TestBrownout|TestResilient|TestBackendConformance|TestServerStoresAlwaysResilient' ./internal/core ./internal/store

# Overload-resilience pass under -race (admission limiter, end-to-end
# cancellation, graceful drain) plus the real-process SIGTERM smoke
# behind the drainsmoke build tag. Mirrors the drain-smoke CI job.
drain-smoke:
	go test -race -run 'TestLimiter|TestAdmi|TestCancelled|TestOverload|TestDrain|TestGetContext|TestCloseRejects|TestExporterFlush' ./internal/core ./internal/store ./internal/journal ./internal/obs
	go test -race -tags drainsmoke -run TestSIGTERMGracefulDrain ./cmd/segshare-server

# Intent-journal pass: the crash-recovery harness (every mutation type
# killed at every backend write, recovery installing the record's blobs
# verbatim), the rollback-attack tests (cold and with a warm
# verified-main cache: rolled-back nodes, dropped writes, restarts,
# aborted intents, CA-authorized restores) and the journal package under
# -race, then ten seconds of fuzzing the record decoder. Mirrors the
# crash-smoke CI job.
crash-smoke:
	go test -race -run 'TestCrash|TestRecoveryInstalls|TestOverwriteLeaves|Rollback' ./internal/core
	go test -race ./internal/journal
	go test -run '^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/journal

# Five seconds of every fuzz target in the module. `go test -fuzz`
# takes one target per run, so the targets are listed first and fuzzed
# one by one; the first failure stops the pass and leaves its input under
# the package's testdata/fuzz. Mirrors the fuzz-smoke CI job.
fuzz-smoke:
	@list=$$(go test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ {f[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, f[i]; n = 0}' | \
	while read -r pkg fn; do \
		echo "fuzz $$pkg $$fn"; \
		go test -run '^$$' -fuzz="^$$fn\$$" -fuzztime=5s "$$pkg" || exit 1; \
	done

# Size of the trusted computing base: non-test Go lines of every package
# that runs inside the enclave (for enctls, the trusted half only) and
# the server's flag count. The paper reports 8 441 LoC (§VII) and counts
# enclave code size as a security property, so this is a ratchet: it
# fails when either number exceeds its ceiling in tcb.budget. A PR that
# must grow one raises the ceiling in the same diff, where a reviewer
# sees it; a PR that shrinks one lowers it. It also fails when a flag
# has no row in README.md's server flag table. Mirrors the tcb CI step.
TCB_PKGS := core obs acl pfs pae rollback mhash journal audit cache dedup fspath enclave
tcb:
	@total=0; \
	for p in $(TCB_PKGS); do \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-9s %6d\n' $$p $$n; total=$$((total+n)); \
	done; \
	n=$$(cat internal/enctls/endpoint.go internal/enctls/conn.go | wc -l); \
	printf '%-9s %6d  (trusted half: endpoint.go conn.go)\n' enctls $$n; total=$$((total+n)); \
	names=$$(go run ./cmd/segshare-server -h 2>&1 | awk '/^  -/ {print $$1}'); \
	flags=$$(echo "$$names" | grep -c .); \
	max_lines=$$(awk '$$1 == "trusted_lines" {print $$2}' tcb.budget); \
	max_flags=$$(awk '$$1 == "server_flags" {print $$2}' tcb.budget); \
	printf '%-9s %6d  non-test Go lines inside the trust boundary (budget %d, paper 8441)\n' total $$total $$max_lines; \
	printf 'segshare-server flags: %d (budget %d)\n' $$flags $$max_flags; \
	if [ $$total -gt $$max_lines ] || [ $$flags -gt $$max_flags ]; then \
		echo 'tcb: over budget — shrink the change, or raise tcb.budget in this PR and say why' >&2; exit 1; \
	fi; \
	for f in $$names; do \
		grep -qF -- "| \`$$f\` |" README.md || { echo "tcb: flag $$f has no row in README.md's server flag table" >&2; exit 1; }; \
	done

# Advisory static analysis — mirrors the non-blocking CI job. Needs
# network access to fetch the tools; failures here never gate a merge.
advisory:
	-go run golang.org/x/vuln/cmd/govulncheck@latest ./...
	-go run honnef.co/go/tools/cmd/staticcheck@latest ./...
