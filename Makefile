# Convenience targets; dune is the real build system.

.PHONY: all check test smoke psmoke cachesmoke faultsmoke profsmoke \
  benchsmoke certsmoke certfuzz qbffuzz arenasmoke servesmoke spawncheck \
  bench lint clean

all:
	dune build @all

# The gate every change must pass: full build + unit/property/cram tests,
# plus the artifact linter, the sanitized test run, and the parallel
# determinism smoke.
check:
	dune build && dune runtest
	$(MAKE) spawncheck
	$(MAKE) lint
	$(MAKE) psmoke
	$(MAKE) cachesmoke
	$(MAKE) faultsmoke
	$(MAKE) profsmoke
	$(MAKE) benchsmoke
	$(MAKE) certsmoke
	$(MAKE) certfuzz
	$(MAKE) qbffuzz
	$(MAKE) arenasmoke
	$(MAKE) servesmoke

# Static lint of the shipped artifacts + the whole suite under the
# solver's runtime invariant sanitizer.
lint:
	dune build bin/step.exe
	dune exec --no-build bin/step.exe -- lint \
	  examples/artifacts/tiny.cnf examples/artifacts/model.qdimacs \
	  examples/artifacts/add3.blif examples/artifacts/add3.aag
	STEP_SANITIZE=1 dune runtest --force

test: check

# One domain scheduler: lib/engine/pool.ml is the only place in lib/ and
# bin/ that starts a domain.
spawncheck:
	! grep -rn 'Domain\.spawn' lib bin | grep -v '^lib/engine/pool\.ml:'

# Quick end-to-end exercise of the pipeline, telemetry and bench harness.
smoke:
	dune build bin/step.exe bench/main.exe
	dune exec --no-build bin/step.exe -- decompose mm9b -m qd -b 1 \
	  --trace smoke_trace.jsonl --stats
	dune exec --no-build bin/step.exe -- trace smoke_trace.jsonl
	dune exec --no-build bench/main.exe -- --quick --budget 0.2 --table 1
	rm -f smoke_trace.jsonl

# Parallel determinism smoke: a -j 4 run must match -j 1 byte for byte
# once CPU timings are stripped.
psmoke:
	dune build bin/step.exe
	dune exec --no-build bin/step.exe -- decompose examples/artifacts/add3.blif \
	  -m qd -g auto -j 1 | sed -E 's/[0-9]+\.[0-9]+s?/TIME/g' > psmoke_j1.txt
	dune exec --no-build bin/step.exe -- decompose examples/artifacts/add3.blif \
	  -m qd -g auto -j 4 | sed -E 's/[0-9]+\.[0-9]+s?/TIME/g' > psmoke_j4.txt
	diff psmoke_j1.txt psmoke_j4.txt
	rm -f psmoke_j1.txt psmoke_j4.txt

# Decomposition-cache smoke: a warm run against a persisted cache dir
# must report hits and stay byte-identical to the cold run (modulo CPU
# timings and the cache hit counts).
cachesmoke:
	dune build bin/step.exe
	rm -rf cachesmoke_dir
	dune exec --no-build bin/step.exe -- generate -k decoder -n 3 \
	  -o cachesmoke.blif
	dune exec --no-build bin/step.exe -- decompose cachesmoke.blif -g and \
	  -m qd --cache-dir cachesmoke_dir \
	  | sed -E 's/[0-9]+\.[0-9]+s?/TIME/g' > cachesmoke_cold.txt
	dune exec --no-build bin/step.exe -- decompose cachesmoke.blif -g and \
	  -m qd --cache-dir cachesmoke_dir \
	  | sed -E 's/[0-9]+\.[0-9]+s?/TIME/g' > cachesmoke_warm.txt
	grep -E '^cache: hits=[1-9]' cachesmoke_warm.txt
	grep -v '^cache:' cachesmoke_cold.txt > cachesmoke_cold.body
	grep -v '^cache:' cachesmoke_warm.txt > cachesmoke_warm.body
	diff cachesmoke_cold.body cachesmoke_warm.body
	rm -rf cachesmoke_dir cachesmoke.blif cachesmoke_cold.txt \
	  cachesmoke_warm.txt cachesmoke_cold.body cachesmoke_warm.body

# Fault-injection smoke: under a fixed STEP_FAULTS schedule every output
# still ends in a definite state (ok / degraded / failed), the process
# exits 0, and two -j 4 runs are byte-identical (cache off: fault
# ordinals are only stable when every cone is actually solved).
faultsmoke:
	dune build bin/step.exe
	dune exec --no-build bin/step.exe -- generate -k decoder -n 3 \
	  -o faultsmoke.blif
	STEP_FAULTS='seed=7;solver.solve@po:0#1;solver.solve@po:2#1!transient' \
	  dune exec --no-build bin/step.exe -- report faultsmoke.blif -g and \
	  -m qd -j 4 --no-cache --fallback mg -f csv \
	  | sed -E 's/[0-9]+\.[0-9]+(e-?[0-9]+)?/TIME/g' > faultsmoke_a.csv
	STEP_FAULTS='seed=7;solver.solve@po:0#1;solver.solve@po:2#1!transient' \
	  dune exec --no-build bin/step.exe -- report faultsmoke.blif -g and \
	  -m qd -j 4 --no-cache --fallback mg -f csv \
	  | sed -E 's/[0-9]+\.[0-9]+(e-?[0-9]+)?/TIME/g' > faultsmoke_b.csv
	diff faultsmoke_a.csv faultsmoke_b.csv
	grep -q ',degraded,' faultsmoke_a.csv
	awk -F, 'NR>1 && $$6!="optimal" && $$6!="decomposed" && \
	  $$6!="indecomposable" && $$6!="timeout" && $$6!="degraded" && \
	  $$6!="failed" {exit 1}' faultsmoke_a.csv
	STEP_FAULTS='solver.solve@po:1#1' \
	  dune exec --no-build bin/step.exe -- report faultsmoke.blif -g and \
	  -m qd --no-cache -f csv | grep -q '^y1,.*,failed,'
	rm -f faultsmoke.blif faultsmoke_a.csv faultsmoke_b.csv

# Profiling smoke: a traced run must profile with >= 95% of wall-clock
# attributed to named spans, and a trace diffed against itself must
# report zero significant deltas.
profsmoke:
	dune build bin/step.exe
	dune exec --no-build bin/step.exe -- generate -k adder -n 3 \
	  -o profsmoke.blif
	dune exec --no-build bin/step.exe -- decompose profsmoke.blif -g xor \
	  -m qd --trace profsmoke.jsonl > /dev/null
	dune exec --no-build bin/step.exe -- profile profsmoke.jsonl \
	  | awk 'NR==1 { p=$$(NF-1); sub("%","",p); \
	    printf "attributed %s%%\n", p; exit !(p+0>=95) }'
	dune exec --no-build bin/step.exe -- trace --diff \
	  profsmoke.jsonl profsmoke.jsonl | grep -q '^0 significant deltas'
	rm -f profsmoke.blif profsmoke.jsonl

# Bench regression gate: a fresh snapshot must pass a clean re-run and
# reject an artificially slowed (--handicap) run; the committed
# BENCH_*.json must stay loadable and quality-identical (wall-clock is
# machine-dependent, so only the fresh snapshot gates on it).
benchsmoke:
	dune build bench/main.exe
	dune exec --no-build bench/main.exe -- --planted \
	  --snapshot benchsmoke_base.json > /dev/null
	dune exec --no-build bench/main.exe -- --planted \
	  --baseline benchsmoke_base.json
	! dune exec --no-build bench/main.exe -- --planted \
	  --baseline benchsmoke_base.json --handicap 25
	dune exec --no-build bench/main.exe -- --planted \
	  --baseline BENCH_7.json --quality-only
	dune exec --no-build bench/main.exe -- --planted \
	  --baseline BENCH_10.json --quality-only
	rm -f benchsmoke_base.json

# Certification smoke: a certified parallel run must check all its own
# certificates, the saved certificate files must re-check through the
# independent `step certify` gate, and a deliberately corrupted proof
# must make that gate fail non-zero.
certsmoke:
	dune build bin/step.exe
	rm -rf certsmoke_dir
	dune exec --no-build bin/step.exe -- generate -k decoder -n 3 \
	  -o certsmoke.blif
	dune exec --no-build bin/step.exe -- decompose certsmoke.blif -g and \
	  -m qd -j 4 --certify --cert-dir certsmoke_dir > certsmoke_out.txt
	grep -E '^cert: checked=[1-9][0-9]* failed=0' certsmoke_out.txt
	dune exec --no-build bin/step.exe -- certify certsmoke_dir
	f=$$(grep -l '"proof"' certsmoke_dir/*.cert.json | head -1) && \
	  sed -i 's/\\n/ 99\\n/' $$f
	! dune exec --no-build bin/step.exe -- certify certsmoke_dir
	rm -rf certsmoke_dir certsmoke.blif certsmoke_out.txt

# Bounded proof fuzzing: random CNFs through the proof-logging solver,
# every UNSAT answer re-checked by the independent LRAT/DRAT checker.
certfuzz:
	dune build bin/fuzz.exe
	dune exec --no-build bin/fuzz.exe -- --proofs --rounds 60 --vars 6 \
	  --seed 11

# Differential method fuzzing: random functions through the Prop.1
# check, the BDD and truth-table references, both extraction engines,
# MG/LJH, and QD/QDB, whose optima must equal exhaustive search's.
qbffuzz:
	dune build bin/fuzz.exe
	dune exec --no-build bin/fuzz.exe -- --rounds 200 --vars 8

# Arena differential smoke: each round solves the same random CNF with
# inprocessing off (reference), with a forced inprocessing pass + arena
# compaction, Simp-preprocessed with model reconstruction, and in proof
# mode with a forced DB reduction + compaction whose LRAT/DRAT
# certificates must still check.
arenasmoke:
	dune build bin/fuzz.exe
	dune exec --no-build bin/fuzz.exe -- --arena --rounds 120 --vars 12 \
	  --seed 5
	dune exec --no-build bin/fuzz.exe -- --arena --rounds 30 --vars 28 \
	  --seed 23

# Serve-mode smoke: scripted JSON-lines sessions against `step serve` —
# warm-cache hits across clients, admission rejection, metrics
# exposition, and a SIGTERM drain completing the in-flight request
# (exit 143). Runs the built binary directly so signals reach it.
servesmoke:
	dune build bin/step.exe
	sh test/servesmoke.sh ./_build/default/bin/step.exe

bench:
	dune exec bench/main.exe

clean:
	dune clean
	rm -rf bench_out smoke_trace.jsonl psmoke_j1.txt psmoke_j4.txt \
	  cachesmoke_dir cachesmoke.blif cachesmoke_cold.txt cachesmoke_warm.txt \
	  cachesmoke_cold.body cachesmoke_warm.body faultsmoke.blif \
	  faultsmoke_a.csv faultsmoke_b.csv profsmoke.blif profsmoke.jsonl \
	  benchsmoke_base.json certsmoke_dir certsmoke.blif certsmoke_out.txt \
	  servesmoke.*
