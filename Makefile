GO ?= go
# bench-check writes the current run's JSON here; empty (the default) means
# a per-run temp file that is cleaned up afterwards, so parallel local runs
# never clobber each other. CI sets it to a workspace path to upload the
# JSON as an artifact when the gate fails.
BENCH_CURRENT ?=
REPLAY_FIXTURE := testdata/replay/bench_suite.json
REPLAY_SCALE := 0.25
REPLAY_ONLY := Table 9,Table 10,Table 11,Table 12,Table 13,Table 14,Table 16
REPLAY_FLAGS := -scale $(REPLAY_SCALE) -replay $(REPLAY_FIXTURE) -only "$(REPLAY_ONLY)" -json
# replay-check and chaos-check also cmp their output with these goldens, so
# a change to the replayed suite's figures fails even when it is
# deterministic; `make baseline` re-records them.
REPLAY_GOLDEN := testdata/replay/golden.json
CHAOS_GOLDEN_DIR := testdata/chaos
# chaos-check runs the replayed efficiency suite with seeded fault
# injection on top (the chaos layer sits above the trace layer, so the two
# compose): each pinned seed must produce byte-identical output across two
# runs (fault streams are keyed on fingerprints, not timing) and match its
# golden, and the suite must complete — zero failed queries — because
# retries and PartialResults absorb every injected fault.
CHAOS_SEEDS := 7 1337 99991
CHAOS_FLAGS := $(REPLAY_FLAGS) -chaos-error 0.10 -chaos-ratelimit 0.05 -chaos-spike 0.2 -hedge-after 1s -partial-results

# Single source of truth for the staticcheck pin; CI installs the same
# version via `make staticcheck-install`.
STATICCHECK_VERSION := 2024.1.1

.PHONY: check lint fmt vet llmsqlvet build test race staticcheck staticcheck-install bench baseline bench-check bench-smoke replay-check replay-fixture chaos-check fuzz docs-check size

## check: everything the CI lint+test jobs run
check: fmt vet llmsqlvet build race bench-smoke docs-check

## lint: the static gates only (no tests)
lint: fmt vet llmsqlvet

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## llmsqlvet: the project-invariant analyzers (mapiter, walltime, lockheld, errwrap)
llmsqlvet:
	$(GO) run ./cmd/llmsqlvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## staticcheck: lint with staticcheck (pinned via `make staticcheck-install`)
staticcheck:
	staticcheck ./...

## staticcheck-install: install the pinned staticcheck version (what CI runs)
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

## bench: full-scale experiment suite to stdout
bench:
	$(GO) run ./cmd/llmsql-bench

## baseline: regenerate the checked-in perf baseline and the replay and chaos goldens
baseline:
	$(GO) run ./cmd/llmsql-bench -json > BENCH_baseline.json
	$(GO) run ./cmd/llmsql-bench $(REPLAY_FLAGS) > $(REPLAY_GOLDEN)
	@mkdir -p $(CHAOS_GOLDEN_DIR)
	@for seed in $(CHAOS_SEEDS); do \
		$(GO) run ./cmd/llmsql-bench $(CHAOS_FLAGS) -chaos-seed $$seed > $(CHAOS_GOLDEN_DIR)/$$seed.json || exit 1; \
	done

## bench-check: run the suite and fail on any byte of difference from BENCH_baseline.json (every figure is on the virtual clock, so the output depends only on the code; `make baseline` re-records it)
bench-check:
	@current="$(BENCH_CURRENT)"; cleanup=""; \
	if [ -z "$$current" ]; then \
		current="$$(mktemp -t llmsql_bench_current.XXXXXX)"; cleanup="$$current"; \
	fi; \
	status=0; \
	$(GO) run ./cmd/llmsql-bench -json > "$$current" || status=$$?; \
	if [ "$$status" -eq 0 ]; then \
		if cmp -s BENCH_baseline.json "$$current"; then \
			echo "bench-check: OK — the suite is byte-identical to BENCH_baseline.json"; \
		else \
			echo "bench-check: FAIL — the suite differs from BENCH_baseline.json (re-record with make baseline if the change is intended):"; \
			diff BENCH_baseline.json "$$current" | head -40; status=1; \
		fi; \
	fi; \
	[ -z "$$cleanup" ] || rm -f "$$cleanup"; \
	exit $$status

## bench-smoke: vet and test the nested benchmark module (root ./... cannot see it, yet it imports internal/llm and internal/core), then run the hot-path micro-benchmarks of the sql, exec, llm, core and serve packages once each so none can rot
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	$(GO) test ./internal/sql ./internal/exec ./internal/llm ./internal/core ./internal/serve -run '^$$' -bench . -benchtime 1x

## replay-check: run the efficiency suite twice from the checked-in replay fixture and fail on any byte difference between the runs or from the golden (what the CI replay-determinism job runs)
replay-check:
	@a="$$(mktemp -t llmsql_replay_a.XXXXXX)"; b="$$(mktemp -t llmsql_replay_b.XXXXXX)"; status=0; \
	$(GO) run ./cmd/llmsql-bench $(REPLAY_FLAGS) > "$$a" || status=$$?; \
	if [ "$$status" -eq 0 ]; then \
		$(GO) run ./cmd/llmsql-bench $(REPLAY_FLAGS) > "$$b" || status=$$?; \
	fi; \
	if [ "$$status" -eq 0 ]; then \
		if ! cmp -s "$$a" "$$b"; then \
			echo "replay-check: FAIL — replayed runs differ:"; diff "$$a" "$$b" | head -40; status=1; \
		elif ! cmp -s $(REPLAY_GOLDEN) "$$a"; then \
			echo "replay-check: FAIL — the replayed suite differs from $(REPLAY_GOLDEN) (re-record with make baseline if the change is intended):"; \
			diff $(REPLAY_GOLDEN) "$$a" | head -40; status=1; \
		else \
			echo "replay-check: OK — two replayed runs are byte-identical to $(REPLAY_GOLDEN)"; \
		fi; \
	fi; \
	rm -f "$$a" "$$b"; exit $$status

## chaos-check: run the full suite under seeded fault injection for each pinned seed, twice, and fail if any run errors, the two runs differ or they differ from the seed's golden (fault-recovery determinism gate)
chaos-check:
	@status=0; \
	for seed in $(CHAOS_SEEDS); do \
		a="$$(mktemp -t llmsql_chaos_a.XXXXXX)"; b="$$(mktemp -t llmsql_chaos_b.XXXXXX)"; \
		$(GO) run ./cmd/llmsql-bench $(CHAOS_FLAGS) -chaos-seed $$seed > "$$a" || status=$$?; \
		if [ "$$status" -eq 0 ]; then \
			$(GO) run ./cmd/llmsql-bench $(CHAOS_FLAGS) -chaos-seed $$seed > "$$b" || status=$$?; \
		fi; \
		if [ "$$status" -eq 0 ]; then \
			if ! cmp -s "$$a" "$$b"; then \
				echo "chaos-check: seed $$seed FAIL — chaos runs differ:"; diff "$$a" "$$b" | head -40; status=1; \
			elif ! cmp -s $(CHAOS_GOLDEN_DIR)/$$seed.json "$$a"; then \
				echo "chaos-check: seed $$seed FAIL — differs from $(CHAOS_GOLDEN_DIR)/$$seed.json (re-record with make baseline if the change is intended):"; \
				diff $(CHAOS_GOLDEN_DIR)/$$seed.json "$$a" | head -40; status=1; \
			else \
				echo "chaos-check: seed $$seed OK — two chaos runs are byte-identical to $(CHAOS_GOLDEN_DIR)/$$seed.json"; \
			fi; \
		fi; \
		rm -f "$$a" "$$b"; \
		[ "$$status" -eq 0 ] || break; \
	done; exit $$status

## replay-fixture: re-record the checked-in replay fixture (after changing prompts, the engine, or the covered experiments)
replay-fixture:
	$(GO) run ./cmd/llmsql-bench -scale $(REPLAY_SCALE) -only "$(REPLAY_ONLY)" -record $(REPLAY_FIXTURE) -json > /dev/null

## docs-check: godoc-coverage lint plus README flag tables verified against each binary's -print-flags output
docs-check:
	@tmp="$$(mktemp -d -t llmsql_docs.XXXXXX)"; status=0; \
	$(GO) run ./cmd/llmsql -print-flags > "$$tmp/llmsql.md" && \
	$(GO) run ./cmd/llmsql-serve -print-flags > "$$tmp/llmsql-serve.md" && \
	$(GO) run ./cmd/llmsql-bench -print-flags > "$$tmp/llmsql-bench.md" && \
	$(GO) run ./cmd/docscheck -readme README.md \
		-flags "llmsql=$$tmp/llmsql.md,llmsql-serve=$$tmp/llmsql-serve.md,llmsql-bench=$$tmp/llmsql-bench.md" \
		|| status=$$?; \
	rm -rf "$$tmp"; exit $$status

## size: the numbers ROADMAP's "least code" aim tracks — non-test Go lines per package (the nested benchmark/ module excluded) with the package's largest non-test file, the core.Config field count and each binary's flag count; one row per PR goes into EXPERIMENTS.md "Size trajectory"
SIZE_STACK := llmsql/internal/core llmsql/internal/llm llmsql/internal/lru llmsql/internal/cliflags llmsql/cmd/llmsql llmsql/cmd/llmsql-serve
size:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read -r pkg dir files; do \
		echo "$$pkg $$(cd "$$dir" && cat $$files | wc -l) $$(cd "$$dir" && wc -l $$files | grep -v ' total$$' | sort -n | tail -1)"; \
	done | awk -v stack="$(SIZE_STACK)" 'BEGIN { n = split(stack, names, " "); for (i = 1; i <= n; i++) in_stack[names[i]] = 1 } \
		{ printf "%-40s %6d   largest %-20s %5d\n", $$1, $$2, $$4, $$3; total += $$2; if ($$1 in in_stack) sub_total += $$2 } \
		END { printf "%-40s %6d\n%-40s %6d\n", "total non-test Go lines", total, "of which stack + flags + the two CLIs", sub_total }'
	@awk '/^type Config struct {/ { in_cfg = 1; next } in_cfg && /^}/ { exit } in_cfg && /^\t[A-Za-z]/ { n++ } \
		END { printf "%-40s %6d\n", "core.Config fields", n }' internal/core/config.go
	@for bin in llmsql llmsql-serve llmsql-bench; do \
		n="$$($(GO) run ./cmd/$$bin -print-flags | grep -c '^| `-')"; \
		[ "$$n" -gt 0 ] || { echo "size: $$bin -print-flags listed no flags"; exit 1; }; \
		printf '%-40s %6d\n' "$$bin flags" "$$n"; \
	done

## fuzz: 30s smoke of each native fuzz target (the weekly scheduled CI run uses FUZZTIME=10m)
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzParseSelect$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sql -run '^$$' -fuzz '^FuzzParseParams$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/llm -run '^$$' -fuzz '^FuzzFingerprintMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/llm -run '^$$' -fuzz '^FuzzDiskCacheLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/llm -run '^$$' -fuzz '^FuzzLoadTrace$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/llm -run '^$$' -fuzz '^FuzzCountTokens$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzParseCompletion$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzSortLimit$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzWireResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
