#!/usr/bin/env bash
# Runs one benchmark workload from the root of a checkout:
#
#   bash perfbench/run.sh --workload <table1|tune-sweep|transfer-z2> \
#        --seed <n> --seconds <n> --trace <0|1>
#
# or the benchmark's own tests with `bash perfbench/run.sh selftest`.
# Builds the program and the benchmark first when their sources changed, then
# runs the workload in one JVM. Everything the run writes stays under
# .bench_build/perfbench. The last line of standard output is the result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build/perfbench
if [ -z "${SPARK_HOME:-}" ] && command -v spark-submit >/dev/null; then
  SPARK_HOME=$(dirname "$(dirname "$(readlink -f "$(command -v spark-submit)")")")
fi
jars=${SPARK_HOME:?set SPARK_HOME to a Spark 4 distribution}/jars

main=perfbench.Main target=build cp="$out/classes:$jars/*"
if [ "${1:-}" = selftest ]; then
  shift
  main=perfbench.SelfTest target=test-classes cp="$out/test-classes:$cp"
fi
make -s -C "$here" "$target" OUT="$out" SPARK_JARS="$jars" >&2
mkdir -p "$out/tmp" "$out/spark"

# Module opens that spark-submit would add itself (as in build.sbt).
opens=()
for p in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio \
         java.util java.util.concurrent java.util.concurrent.atomic \
         sun.nio.ch sun.nio.cs sun.security.action sun.util.calendar; do
  opens+=("--add-opens=java.base/$p=ALL-UNNAMED")
done

# A fixed 3 GB heap and the parallel collector keep pauses short and alike
# from run to run.
exec java -Xms3g -Xmx3g -XX:+UseParallelGC -XX:-UsePerfData "${opens[@]}" \
  -Djava.io.tmpdir="$out/tmp" -Dperfbench.scratch="$out/spark" \
  -cp "$cp" "$main" "$@"
