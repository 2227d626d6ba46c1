# Smoke test of the rfidclean_cli workflow: generate -> clean -> stay ->
# pattern -> sample, each step checked for a zero exit code and the files it
# promises. Invoked by ctest as
#   cmake -DCLI=<path-to-binary> -DWORK_DIR=<scratch>
#         -DTRACE_ENABLED=<ON|OFF> -DEXPLAIN_ENABLED=<ON|OFF>
#         -P cli_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

# Runs a command that must exit 1 AND mention `substr` in its output — bad
# flags must produce a diagnostic, not a silent fallback or a crash.
function(expect_fail substr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
            "expected exit 1, got '${code}': ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${out}${err}" "${substr}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "expected '${substr}' in the diagnostics of: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

# A report file a failed clean leaves behind must hold the explicit error
# object, never the probe's zero-byte file: a consumer polling the path has
# to be able to tell "run failed" from "interrupted mid-write".
function(expect_error_stub file)
  if(NOT EXISTS ${file})
    message(FATAL_ERROR "failed clean removed ${file} entirely")
  endif()
  file(READ ${file} stub_payload)
  string(FIND "${stub_payload}" "\"status\": \"error\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "failed clean left ${file} without the error stub: "
            "'${stub_payload}'")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run_step(${CLI} generate --floors 2 --duration 90 --seed 5 --out ${WORK_DIR})
foreach(artifact building.map readings.csv truth.txt)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "generate did not write ${artifact}")
  endif()
endforeach()

run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --families DU+LT
         --dot ${WORK_DIR}/graph.dot --audit)
if(NOT EXISTS ${WORK_DIR}/graph.ctg)
  message(FATAL_ERROR "clean did not write graph.ctg")
endif()
if(NOT EXISTS ${WORK_DIR}/graph.dot)
  message(FATAL_ERROR "clean did not write graph.dot")
endif()

# Re-clean with stats emission: the JSON must land where asked and carry
# the counter block.
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --families DU+LT
         --stats=${WORK_DIR}/stats.json)
if(NOT EXISTS ${WORK_DIR}/stats.json)
  message(FATAL_ERROR "clean --stats did not write stats.json")
endif()
file(READ ${WORK_DIR}/stats.json stats_payload)
foreach(field stats_enabled counters phases histograms forward_edges)
  string(FIND "${stats_payload}" "\"${field}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "stats.json lacks \"${field}\":\n${stats_payload}")
  endif()
endforeach()

run_step(${CLI} stay --dir ${WORK_DIR} --time 45)
run_step(${CLI} pattern --dir ${WORK_DIR} --pattern "? F0.Corridor ?")
run_step(${CLI} sample --dir ${WORK_DIR} --count 2 --seed 7)
run_step(${CLI} report --dir ${WORK_DIR} --audit)

# Error paths must fail cleanly, not crash.
execute_process(COMMAND ${CLI} stay --dir ${WORK_DIR} --time 100000
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "out-of-range stay query should fail")
endif()
execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "clean on a missing directory should fail")
endif()

# Malformed flag values must be diagnosed up front, never coerced (atoi
# would quietly read "abc" as 0) or deferred until after minutes of work.
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs 0)
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs abc)
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs -2)
expect_fail("--tags must be a non-negative integer"
            ${CLI} generate --out ${WORK_DIR} --tags -3)
expect_fail("--tags must be a non-negative integer"
            ${CLI} generate --out ${WORK_DIR} --tags abc)
expect_fail("cannot write stats file"
            ${CLI} clean --dir ${WORK_DIR}
            --stats=${WORK_DIR}/no-such-subdir/stats.json)
# Every integer flag parses strictly: a malformed or out-of-range value is a
# diagnostic, never an abort deep in the library or atoi's silent 0.
expect_fail("--floors must be a positive integer"
            ${CLI} generate --out ${WORK_DIR} --floors 0)
expect_fail("--floors must be a positive integer"
            ${CLI} generate --out ${WORK_DIR} --floors abc)
expect_fail("--duration must be a positive integer"
            ${CLI} generate --out ${WORK_DIR} --duration 0)
expect_fail("--seed must be a non-negative integer"
            ${CLI} clean --dir ${WORK_DIR} --seed abc)
expect_fail("--time must be a non-negative integer"
            ${CLI} stay --dir ${WORK_DIR} --time abc)
expect_fail("--count must be a non-negative integer"
            ${CLI} sample --dir ${WORK_DIR} --count abc)

# A clean that fails after the --stats writability probe must leave the
# error stub behind.
execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                --stats=${WORK_DIR}/failed_stats.json
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "clean on a missing directory should fail")
endif()
expect_error_stub(${WORK_DIR}/failed_stats.json)

# The three report flags behave symmetrically: each probes its output path
# for writability before any cleaning work, and each leaves a well-formed
# artifact behind when the clean itself fails (--stats/--explain an error
# stub, --trace the timeline of the failure).
if(TRACE_ENABLED)
  expect_fail("cannot write trace file"
              ${CLI} clean --dir ${WORK_DIR}
              --trace=${WORK_DIR}/no-such-subdir/trace.json)
  # A failed probe stubs every report probed before it.
  expect_fail("cannot write trace file"
              ${CLI} clean --dir ${WORK_DIR}
              --stats=${WORK_DIR}/probed_stats.json
              --trace=${WORK_DIR}/no-such-subdir/trace.json)
  expect_error_stub(${WORK_DIR}/probed_stats.json)
endif()
if(EXPLAIN_ENABLED)
  expect_fail("cannot write explain file"
              ${CLI} clean --dir ${WORK_DIR}
              --explain=${WORK_DIR}/no-such-subdir/explain.json)
  execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                  --explain=${WORK_DIR}/failed_explain.json
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
  if(code EQUAL 0)
    message(FATAL_ERROR "clean on a missing directory should fail")
  endif()
  expect_error_stub(${WORK_DIR}/failed_explain.json)
  # Every flag value is checked before any report is probed, so a bad one
  # creates no file at all.
  expect_fail("--explain-top-edges must be a positive integer"
              ${CLI} clean --dir ${WORK_DIR}
              --stats=${WORK_DIR}/unprobed_stats.json
              --explain --explain-top-edges 0)
  if(EXISTS ${WORK_DIR}/unprobed_stats.json)
    message(FATAL_ERROR "a rejected flag value left a stats file behind")
  endif()
else()
  # Explain-off builds must reject the flag with a clear diagnostic rather
  # than silently writing an empty report.
  expect_fail("--explain requires an explain-enabled build"
              ${CLI} clean --dir ${WORK_DIR} --explain)
endif()

# A graph cleaned over one building and queried against another names
# locations the second building lacks: every query must fail naming the
# id, the location count and the building file, not abort mid-query.
set(big ${WORK_DIR}/four_floors)
set(small ${WORK_DIR}/one_floor)
file(MAKE_DIRECTORY ${big} ${small})
run_step(${CLI} generate --floors 4 --duration 30 --seed 3 --out ${big})
run_step(${CLI} generate --floors 1 --duration 30 --seed 3 --out ${small})
run_step(${CLI} clean --dir ${big} --store ${big}/graphs.cts)
run_step(${CLI} clean --dir ${big})
set(mismatch "${small}/building.map has only")
expect_fail("${mismatch}" ${CLI} stay --dir ${small}
            --store ${big}/graphs.cts --tag 0 --time 5)
file(COPY ${big}/graph.ctg DESTINATION ${small})
expect_fail("${mismatch}" ${CLI} stay --dir ${small} --time 5)
expect_fail("${mismatch}" ${CLI} sample --dir ${small})
expect_fail("${mismatch}" ${CLI} report --dir ${small})
expect_fail("${mismatch}" ${CLI} pattern --dir ${small} --pattern "?")

message(STATUS "cli smoke test passed")
