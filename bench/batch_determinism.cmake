# Determinism check for bench/batch_throughput: two runs with the same
# workload and seed must produce identical BENCH_batch.json payloads once
# the timing-dependent fields (millis, tags_per_sec, peak_rss_bytes) and
# the scheduling-dependent obs counter (stats_arena_reuses — which lane
# cleans, and so recycles its arena for, which tag varies at jobs > 1)
# are stripped — in particular the result digests, which also
# must not vary across job counts within a run, and the workload-
# deterministic stats_* counters, which must not either. Invoked by ctest
# as
#   cmake -DBENCH=<binary> -DWORK_DIR=<scratch> -P batch_determinism.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(run 1 2)
  execute_process(
    COMMAND ${BENCH} --tags 8 --ticks 60 --seed 5 --jobs 1,2,8
            --out ${WORK_DIR}/run${run}.json
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "batch_throughput run ${run} failed (${code}):\n${out}\n${err}")
  endif()
endforeach()

foreach(run 1 2)
  file(READ ${WORK_DIR}/run${run}.json payload)
  string(REGEX REPLACE
         "\"(millis|tags_per_sec|peak_rss_bytes|stats_arena_reuses)\": [0-9.]+,?\n"
         "" payload "${payload}")
  set(payload_${run} "${payload}")
endforeach()

if(NOT payload_1 STREQUAL payload_2)
  message(FATAL_ERROR "BENCH_batch.json payloads differ across identically "
          "seeded runs:\n--- run1 ---\n${payload_1}\n--- run2 ---\n${payload_2}")
endif()

# Within a run, the digest must be job-count-invariant (parallel ≡ serial).
string(REGEX MATCHALL "\"digest\": \"[0-9a-f]+\"" digests "${payload_1}")
list(LENGTH digests num_digests)
if(NOT num_digests EQUAL 3)
  message(FATAL_ERROR "expected 3 digests, found ${num_digests}")
endif()
list(REMOVE_DUPLICATES digests)
list(LENGTH digests num_distinct)
if(NOT num_distinct EQUAL 1)
  message(FATAL_ERROR "digests differ across job counts: ${digests}")
endif()

message(STATUS "batch determinism test passed")
