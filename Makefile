.PHONY: all build test test-mem check smoke serve-smoke trace-smoke pipeline-smoke suite-smoke hbm-smoke learn-smoke perf-smoke chaos bench bench-dse bench-dse-spec bench-serve bench-trace bench-profile bench-suite promote promote-suite promote-model clean

all: build

build:
	dune build @all

test:
	dune runtest

# The tier-1 tests under a memory ceiling: prints the peak RSS of the
# largest process (test_main) and fails above 5 GB, so analyses kept
# alive by a cache cannot creep back. --force reruns tests dune would
# otherwise skip as up to date.
test-mem:
	python3 test/peak_rss.py 5120 -- dune runtest --force

# Full verification: build everything, run the test suite (which includes
# the fault-injection harness in test/test_robustness.ml), then smoke-test
# the CLI's diagnostic path on a deliberately broken kernel (must exit 1,
# not crash), the serve loop on a batch with one malformed request, the
# cycle-attribution trace on two bundled kernels in both modes, the
# benchmark-suite smoke matrix against its committed baseline, and the
# seeded chaos storm against a live socket server.
check: build test smoke serve-smoke trace-smoke pipeline-smoke suite-smoke hbm-smoke learn-smoke chaos

smoke:
	@tmp=$$(mktemp --suffix=.cl); \
	printf '__kernel void f(__global float* a) {\n  int x = ;\n  a[0] = 1.0f\n}\n' > $$tmp; \
	dune exec --no-build bin/flexcl_cli.exe -- analyze --kernel $$tmp; \
	status=$$?; rm -f $$tmp; \
	if [ $$status -ne 1 ]; then \
	  echo "smoke: expected exit 1 on broken kernel, got $$status"; exit 1; \
	fi; \
	echo "smoke: broken-kernel diagnostics OK (exit 1)"

# Pipe a 4-request NDJSON batch (one line deliberately malformed) through
# `flexcl serve`: the server must answer every line in order — 3 ok, 1
# structured error — and exit 0 at EOF rather than crash or wedge.
serve-smoke:
	@out=$$(printf '%s\n' \
	  '{"id":1,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true}' \
	  'this line is not json' \
	  '{"id":3,"kind":"parse","source":"__kernel void f(__global float* a, int n) { a[0] = 1.0f; }"}' \
	  '{"id":4,"kind":"stats"}' \
	  | dune exec --no-build bin/flexcl_cli.exe -- serve 2>/dev/null); \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "serve-smoke: expected exit 0, got $$status"; exit 1; \
	fi; \
	total=$$(printf '%s\n' "$$out" | wc -l); \
	errors=$$(printf '%s\n' "$$out" | grep -c '"ok":false'); \
	oks=$$(printf '%s\n' "$$out" | grep -c '"ok":true'); \
	if [ $$total -ne 4 ] || [ $$errors -ne 1 ] || [ $$oks -ne 3 ]; then \
	  echo "serve-smoke: expected 3 ok + 1 error responses, got $$oks ok + $$errors error ($$total lines)"; \
	  printf '%s\n' "$$out"; exit 1; \
	fi; \
	echo "serve-smoke: 3 ok + 1 structured error, exit 0 OK"

# `flexcl explain` self-validates its trace before printing (conservation
# check, root-vs-estimate agreement, JSON round-trip) and exits 3 on any
# violation, so the smoke only has to run it and look at the surface:
# a JSON trace with the kernel at the root and Table-1 memory leaves, and
# a text tree in barrier mode on a second kernel.
trace-smoke:
	@out=$$(dune exec --no-build bin/flexcl_cli.exe -- explain \
	  -w hotspot/hotspot --pe 2 --cu 2 --pipeline --json); \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "trace-smoke: explain --json exited $$status"; exit 1; \
	fi; \
	case "$$out" in \
	  *'"trace"'*'hotspot'*'"eq":"Eq.'*) ;; \
	  *) echo "trace-smoke: JSON trace lacks the expected structure"; \
	     printf '%s\n' "$$out"; exit 1 ;; \
	esac; \
	out=$$(dune exec --no-build bin/flexcl_cli.exe -- explain \
	  -w backprop/layer --mode barrier); \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "trace-smoke: explain (barrier) exited $$status"; exit 1; \
	fi; \
	case "$$out" in \
	  *'barrier mode'*'Eq.10'*'Table-1'*) ;; \
	  *) echo "trace-smoke: text trace lacks the barrier-mode root"; \
	     printf '%s\n' "$$out"; exit 1 ;; \
	esac; \
	echo "trace-smoke: conservation-validated traces on 2 kernels OK"

# Pipeline-graph smoke (DESIGN.md §14): a conservation-checked explain
# on every bundled kernel graph (`pipeline explain` exits 3 on any
# violation, so running it is the assertion), a co-sim cross-check on
# the stream pipeline, and the deadlock guard — an unbalanced --rounds
# override must exit 3 with a diagnostic, never hang.
pipeline-smoke:
	@for g in stream/produce-filter-consume stencil/blur-sharpen; do \
	  dune exec --no-build bin/flexcl_cli.exe -- pipeline explain \
	    --graph $$g --json > /dev/null || { \
	    echo "pipeline-smoke: explain --json failed on $$g"; exit 1; }; \
	done; \
	out=$$(dune exec --no-build bin/flexcl_cli.exe -- pipeline cosim \
	  --graph stream/produce-filter-consume --seed 7); \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "pipeline-smoke: cosim exited $$status"; exit 1; \
	fi; \
	case "$$out" in \
	  *'co-sim'*'error'*) ;; \
	  *) echo "pipeline-smoke: cosim output lacks the comparison"; \
	     printf '%s\n' "$$out"; exit 1 ;; \
	esac; \
	dune exec --no-build bin/flexcl_cli.exe -- pipeline cosim \
	  --graph stream/produce-filter-consume --rounds produce=32 \
	  > /dev/null 2>&1; \
	status=$$?; \
	if [ $$status -ne 3 ]; then \
	  echo "pipeline-smoke: expected exit 3 on a deadlocking override, got $$status"; exit 1; \
	fi; \
	echo "pipeline-smoke: 2 graphs explained + co-sim cross-check + deadlock guard OK"

# Benchmark-suite smoke gate (DESIGN.md §13): run the fast subset of the
# (workload x device) matrix and diff it against the committed baseline.
# Accuracy vs simrtl is deterministic and gated tightly; warm latency is
# calibration-normalized and gated outside the measured noise band only.
# Exit 1 here means a real regression — see the REGRESSION lines.
suite-smoke:
	@dune exec --no-build bin/flexcl_cli.exe -- suite --smoke -q \
	  -o _build/BENCH_suite.smoke.json \
	  --model test/goldens/model.golden.json \
	  --compare test/goldens/BENCH_suite.baseline.json

# Learned-residual calibration gate (DESIGN.md §16): refit the committed
# full-matrix fixture and require (a) byte-identical model output — the
# whole fit path is deterministic, any drift is a bug — and (b) the
# leave-one-kernel-out gate: held-out calibrated error must strictly
# beat the raw analytical model in the mean.
learn-smoke:
	@dune exec --no-build bin/flexcl_cli.exe -- fit \
	  --from test/goldens/BENCH_suite.full.json \
	  -o _build/model.smoke.json; \
	if ! cmp -s _build/model.smoke.json test/goldens/model.golden.json; then \
	  echo "learn-smoke: refit model differs from test/goldens/model.golden.json"; \
	  echo "learn-smoke: if the fixture legitimately moved, run 'make promote-model'"; \
	  exit 1; \
	fi; \
	dune exec --no-build bin/flexcl_cli.exe -- crossval \
	  --from test/goldens/BENCH_suite.full.json --gate > /dev/null; \
	echo "learn-smoke: deterministic refit + LOKO gate OK"

# Multi-channel HBM smoke (DESIGN.md §15): a placed analyze on the
# 32-channel xcu280 must beat-or-match shape expectations, a placed
# explain on the dual-DDR4 board self-validates conservation across the
# channel-roofline node (exit 3 on any violation), and a placement that
# names a nonexistent buffer must die with a spanned usage diagnostic
# (exit 2), never a crash.
hbm-smoke:
	@out=$$(dune exec --no-build bin/flexcl_cli.exe -- analyze \
	  -w bfs/bfs_1 --device xcu280 --pe 2 --cu 2 --pipeline \
	  --placement cost=1 --placement edges=2); \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "hbm-smoke: placed analyze exited $$status"; exit 1; \
	fi; \
	case "$$out" in \
	  *'on xcu280'*'TOTAL'*) ;; \
	  *) echo "hbm-smoke: placed analyze output lacks the device header"; \
	     printf '%s\n' "$$out"; exit 1 ;; \
	esac; \
	dune exec --no-build bin/flexcl_cli.exe -- explain \
	  -w mvt/mvt --device xcku060-2ddr --pe 1 --cu 2 --pipeline \
	  --placement x1=1 --json > /dev/null; \
	status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "hbm-smoke: placed explain exited $$status"; exit 1; \
	fi; \
	dune exec --no-build bin/flexcl_cli.exe -- analyze \
	  -w bfs/bfs_1 --device xcu280 --placement zzz=0 > /dev/null 2>&1; \
	status=$$?; \
	if [ $$status -ne 2 ]; then \
	  echo "hbm-smoke: expected exit 2 on an unknown placement buffer, got $$status"; exit 1; \
	fi; \
	echo "hbm-smoke: placed analyze + conservation-validated explain + placement guard OK"

# Served path end to end, through the benchmark's own driver: a
# one-second run of each bounded perfbench workload against real
# `flexcl serve --socket` processes. perfbench checks every response
# (explore tops equal cycles.golden, served cycles bit-equal to
# Model.estimate, servers exit cleanly) and reports the verdict on its
# last line, which must read "correct": true with 0 failed.
perf-smoke:
	@for w in hot-predict cold-explore; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0); \
	  status=$$?; \
	  if [ $$status -ne 0 ]; then \
	    echo "perf-smoke: $$w exited $$status"; exit 1; \
	  fi; \
	  printf '%s\n' "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || { \
	    echo "perf-smoke: $$w was not correct with 0 failed:"; \
	    printf '%s\n' "$$out" | tail -n 1; exit 1; }; \
	  echo "perf-smoke: $$w correct, 0 failed"; \
	done

# Chaos harness (DESIGN.md §12): >= 500 seeded trials of malformed
# frames, mid-request disconnects, deadline storms, overload bursts and
# injected worker panics against a live socket server. The hard timeout
# is part of the contract — a hang is a failure, not a slow pass.
# Replay a failure with CHAOS_SEED=<seed from the log> make chaos.
chaos:
	@dune build test/test_chaos.exe; \
	timeout 120 dune exec --no-build test/test_chaos.exe; \
	status=$$?; \
	if [ $$status -eq 124 ]; then \
	  echo "chaos: TIMED OUT after 120s — the server wedged"; exit 1; \
	elif [ $$status -ne 0 ]; then \
	  echo "chaos: failed with exit $$status"; exit $$status; \
	fi

bench:
	dune exec bench/main.exe

# Parallel sweep engine: sequential-vs-parallel timings, pruning counts
# and the pruned-best == exact-best cross-check.
bench-dse:
	dune exec bench/main.exe -- dse-parallel

# Staged model specialization: warm per-point cost of the closed-form
# specialized eval vs re-staging every point (>= 5x target), rankings
# cross-checked bit-for-bit, written to BENCH_dse_specialize.json.
bench-dse-spec:
	dune exec bench/main.exe -- dse-specialize

# Regenerate test/goldens/cycles.golden, profiles.golden and
# sweeps.golden from the current model and interpreter — run
# deliberately when either legitimately moves, then review the diff.
promote:
	dune exec test/promote.exe

# Serve cache payoff: cold vs cached predict latency, throughput and
# tail percentiles, written to BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- serve-load

# Explain-vs-estimate cost on a warm cache (< 10% target), written to
# BENCH_trace.json.
bench-trace:
	dune exec bench/main.exe -- trace-overhead

# Profiling pass: Analysis.analyze on the 238 launches a cold explore of
# the corpus profiles, best of five passes: ms per pass, interpreter
# steps/s, minor and promoted words per pass (BENCH_profile.json).
bench-profile:
	dune exec bench/main.exe -- profile-pass

# Full benchmark-suite matrix: every Rodinia and PolyBench workload on
# every device, all three estimate engines cross-checked bitwise against
# each other and for accuracy against the simrtl ground truth, written
# to BENCH_suite.json (normalized, schema-versioned).
bench-suite:
	dune exec bin/flexcl_cli.exe -- suite -o BENCH_suite.json

# Refresh the committed suite baseline from the current model — run
# deliberately when accuracy or the hot path legitimately moves, then
# review the diff like any golden (`git diff test/goldens/`).
promote-suite:
	dune exec bin/flexcl_cli.exe -- suite --smoke -q \
	  --model test/goldens/model.golden.json \
	  -o test/goldens/BENCH_suite.baseline.json

# Refresh the committed full-matrix fixture and the model fitted from it
# — the expensive, deliberate counterpart of promote-suite (the full
# (workload x device) matrix runs for several minutes). Review the diff
# alongside the Table-2 error columns in DESIGN.md §16.
promote-model:
	dune exec bin/flexcl_cli.exe -- suite -q --repeat 2 --warmup 1 \
	  -o test/goldens/BENCH_suite.full.json \
	  --fit test/goldens/model.golden.json

clean:
	dune clean
