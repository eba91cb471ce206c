# Tier-1 verification is `make check`: build, vet, gofmt, plain tests, and
# the race detector over the whole module (the chaos tests are written to
# be race-detector-clean).

GO ?= go

.PHONY: check build vet fmt test race examples pin-experiments bench-check daemon-smoke fuzz loc gates gate-bootstorm gate-tracing gate-gossip-scale gate-inflate rungs

check: build vet fmt test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing them, if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "not gofmt-clean:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run the narrated scenarios: squirrelctl's subcommands (each exits
# nonzero when its deployment misbehaves; `go test ./cmd/squirrelctl` pins
# their stdout) and, for the seeded wire-fault, partition and torn-apply
# arcs no subcommand narrates, the tests that assert them.
examples:
	$(GO) run ./cmd/squirrelctl run
	$(GO) run ./cmd/squirrelctl run -offline node02
	$(GO) run ./cmd/squirrelctl run -peers
	$(GO) run ./cmd/squirrelctl health -peers
	$(GO) run ./cmd/squirrelctl workload -nodes 32 -boots 3200 -arrivals flash
	$(GO) test -count=1 -run 'TestChaosSoakConvergence|TestPartitionSoak|TestTornRegistrationRollsBackOnRestart' ./internal/core/

# Pin the paper's numbers by machine: regenerate every experiment table
# and byte-diff it against experiments_output.txt (outside `took` lines
# and the not-yet-deterministic figpeer table). ~3.5 min, so CI runs it
# as its own job and `make check` does not.
pin-experiments:
	./scripts/pin_experiments.sh

# Race-enabled loopback smoke for daemon mode: squirreld up, one
# `squirrelctl telemetry -addr` run end to end, a gossip-index daemon's
# round ticker under one `squirrelctl peers -addr`, SIGTERM drain.
daemon-smoke:
	./scripts/daemon_smoke.sh

# The wire-level benchmark is its own module (bench/go.mod, replace
# repro => ../) and so outside `make check`; vet and test it against
# this tree so a product-API deletion that breaks it fails here rather
# than in the perf pipeline.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The line ledger CHANGES.md quotes per PR: non-test Go outside bench/
# (the number a simplicity PR must move down), then the tests, then
# bench/ itself.
loc:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'test Go outside bench/:     '; find . -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'bench/ Go:                  '; find ./bench -name '*.go' | xargs cat | wc -l

# Short fuzz burst over the decoders that take bytes from elsewhere — the
# wire protocol, the control-plane request bodies, the binary boot
# request and report and the binary health, info and stats replies (off
# a socket), the
# snapshot stream format (off the registration multicast), decoded and
# then received, and the block codecs (off a disk that can rot). Each
# target also replays its seed corpus during plain `make test`.
fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 20s ./internal/wireproto/
	$(GO) test -fuzz FuzzReadHelloReply -fuzztime 5s ./internal/wireproto/
	$(GO) test -fuzz FuzzDecodeError -fuzztime 5s ./internal/wireproto/
	$(GO) test -fuzz FuzzHandle -fuzztime 10s ./internal/daemon/
	$(GO) test -fuzz FuzzBootRequest -fuzztime 5s ./internal/ctlplane/
	$(GO) test -fuzz FuzzBootReport -fuzztime 5s ./internal/ctlplane/
	$(GO) test -fuzz FuzzHealthReply -fuzztime 5s ./internal/ctlplane/
	$(GO) test -fuzz FuzzInfoReply -fuzztime 5s ./internal/ctlplane/
	$(GO) test -fuzz FuzzStatsReply -fuzztime 5s ./internal/ctlplane/
	$(GO) test -fuzz FuzzDecodeStream -fuzztime 10s ./internal/zvol/
	$(GO) test -fuzz FuzzReceiveStream -fuzztime 10s ./internal/zvol/
	$(GO) test -fuzz FuzzDecompressInto -fuzztime 10s ./internal/compress/
	$(GO) test -fuzz FuzzInflate -fuzztime 10s ./internal/compress/

# The four bars that depend on the machine, each asserted by the
# benchmark that measures it (the exit status is the verdict): /16 boot
# storm >= 4x the serialized /1; span recording <= 5% on interleaved
# traced and untraced boot waves, 2000 per side; a gossip round's
# per-node cost at 10k nodes <= 3x its cost at 1k, on the Links a
# deployment runs, with and without a cut open; the gzip decode core
# >= 1.3x compress/gzip on the deployment's own cache blocks, interleaved
# passes of one run. The bars that depend only on the seed (hedged p99,
# owner-crash convergence, flash-crowd tail) are ordinary tests and run
# under `make test`.
gates: gate-bootstorm gate-tracing gate-gossip-scale gate-inflate

gate-bootstorm:
	$(GO) test -run '^$$' -bench BenchmarkBootStorm ./internal/core/

gate-tracing:
	$(GO) test -run '^$$' -bench BenchmarkBootWaveTracingOverhead -benchtime 2000x ./internal/core/

gate-gossip-scale:
	$(GO) test -run '^$$' -bench BenchmarkGossipScale -benchtime 1x ./internal/gossip/

gate-inflate:
	$(GO) test -run '^$$' -bench BenchmarkInflateCorpus -benchtime 1x ./internal/compress/

# The ledger rungs CHANGES.md quotes (warm boots, peer-served cold
# boots, first boots of a new image stormed 1/8/32 at once,
# registration stream, Stats poll, control-RPC mix, warm boots over the
# wire, a 64 KB Visit served by the decoded-block cache and always
# decoding, a finished span and its
# child folded into the telemetry registry, one encode and decode of
# each binary control-plane body, one encode and one decode of a
# snapshot stream, a write of 1, 2 and 4 never-seen 64 KB blocks), one
# iteration each so they cannot rot between the PRs that read them.
rungs:
	$(GO) test -run '^$$' -bench BenchmarkWarmBoot -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkColdBoot$$' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkStormFirstBoot -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkRegisterStream -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkStats -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench BenchmarkControlRPC -benchtime 1x ./internal/daemon/
	$(GO) test -run '^$$' -bench BenchmarkBootRPC -benchtime 1x ./internal/daemon/
	$(GO) test -run '^$$' -bench BenchmarkVisitDecoded -benchtime 1x ./internal/zvol/
	$(GO) test -run '^$$' -bench BenchmarkRegistryRecord -benchtime 1x ./internal/obs/
	$(GO) test -run '^$$' -bench BenchmarkBodies -benchtime 1x ./internal/ctlplane/
	$(GO) test -run '^$$' -bench BenchmarkWireEncode -benchtime 1x ./internal/zvol/
	$(GO) test -run '^$$' -bench BenchmarkWireDecode -benchtime 1x ./internal/zvol/
	$(GO) test -run '^$$' -bench BenchmarkWriteObject -benchtime 1x ./internal/zvol/
