# Run every bench binary with google-benchmark's JSON reporter and merge the
# per-binary reports into one machine-readable BENCH_RESULTS.json, keyed by
# binary name.  Driven by the `bench-all` target:
#
#   cmake --build build --target bench-all
#   jq '.bench_attack_matrix.benchmarks[] | {name, real_time}' build/BENCH_RESULTS.json
#
# Required -D vars: BENCH_DIR (binary dir), BENCH_NAMES (comma-separated),
# OUTPUT (aggregate path).  Optional: MIN_TIME (per-benchmark seconds,
# default 0.05 — enough for stable medians on these millisecond-scale
# benches without CI-hostile runtimes).
cmake_minimum_required(VERSION 3.19) # string(JSON)

if(NOT DEFINED MIN_TIME)
  set(MIN_TIME "0.05")
endif()

string(REPLACE "," ";" bench_list "${BENCH_NAMES}")

set(agg "{}")
foreach(name IN LISTS bench_list)
  set(json_file "${BENCH_DIR}/${name}.json")
  message(STATUS "bench-all: running ${name}")
  execute_process(
    COMMAND "${BENCH_DIR}/${name}"
            "--benchmark_out=${json_file}"
            "--benchmark_out_format=json"
            "--benchmark_min_time=${MIN_TIME}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE bench_stdout
    ERROR_VARIABLE bench_stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench-all: ${name} failed (${rc}):\n${bench_stderr}")
  endif()
  file(READ "${json_file}" one)
  string(JSON agg SET "${agg}" "${name}" "${one}")
endforeach()

# Write-temp-then-rename so a cancelled bench run never leaves a torn
# aggregate behind.
file(WRITE "${OUTPUT}.tmp" "${agg}")
file(RENAME "${OUTPUT}.tmp" "${OUTPUT}")
message(STATUS "bench-all: wrote ${OUTPUT}")
