# Smoke test of the explain workflow: `clean --explain` must emit a valid
# attribution report and persist per-tag summaries into the ct-store, the
# `explain` subcommand must answer decode-mode and re-clean-mode queries,
# the report must be byte-identical across worker counts, and an armed
# session must not perturb the cleaned graph. Invoked by ctest as
#   cmake -DCLI=<binary> -DWORK_DIR=<scratch> -DEXPLAIN_ENABLED=<ON|OFF>
#         [-DPYTHON=<python3> -DCHECKER=<report_validator.py>]
#         -P cli_explain_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

function(expect_fail substr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "expected nonzero exit: ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${out}${err}" "${substr}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "expected '${substr}' in the diagnostics of: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

function(expect_output substr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${out}${err}" "${substr}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "expected '${substr}' in the output of: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

if(NOT EXPLAIN_ENABLED)
  # Explain-off builds must reject the probes with clear diagnostics, never
  # silently produce empty attribution.
  run_step(${CLI} generate --floors 2 --duration 30 --seed 5
           --out ${WORK_DIR})
  expect_fail("--explain requires an explain-enabled build"
              ${CLI} clean --dir ${WORK_DIR} --explain)
  expect_fail("explain --dir requires an explain-enabled build"
              ${CLI} explain --dir ${WORK_DIR})
  message(STATUS "cli explain smoke test passed (explain compiled out)")
  return()
endif()

# --- Single-tag: explicit report path; the armed session must not change
# the cleaned graph. ---
run_step(${CLI} generate --floors 2 --duration 60 --seed 5 --out ${WORK_DIR})
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5)
file(COPY_FILE ${WORK_DIR}/graph.ctg ${WORK_DIR}/baseline.ctg)
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5
         --explain=${WORK_DIR}/single.json)
if(NOT EXISTS ${WORK_DIR}/single.json)
  message(FATAL_ERROR "clean --explain did not write single.json")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/graph.ctg ${WORK_DIR}/baseline.ctg
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "explained clean produced a different graph.ctg")
endif()

# --- Multi-tag: bare --explain defaults to DIR/explain.json; summaries
# ride into the ct-store next to the graphs. ---
file(MAKE_DIRECTORY ${WORK_DIR}/multi)
run_step(${CLI} generate --floors 2 --duration 40 --seed 7 --tags 5
         --out ${WORK_DIR}/multi)
run_step(${CLI} clean --dir ${WORK_DIR}/multi --seed 7 --jobs 3 --explain
         --store ${WORK_DIR}/multi/s.cts)
if(NOT EXISTS ${WORK_DIR}/multi/explain.json)
  message(FATAL_ERROR "bare --explain did not write DIR/explain.json")
endif()
expect_output("explain summaries verified ok"
              ${CLI} store verify --store ${WORK_DIR}/multi/s.cts)

# Deep arithmetic validation (rollup agreement, mass conservation, totals
# as per-tag sums) when a Python interpreter is available.
if(PYTHON AND CHECKER)
  run_step(${PYTHON} ${CHECKER} explain ${WORK_DIR}/single.json --min-tags 1)
  run_step(${PYTHON} ${CHECKER} explain ${WORK_DIR}/multi/explain.json
           --min-tags 5 --require-status 0=ok --require-status 4=ok)
endif()

# --- Report determinism: jobs 1 and jobs 8 must export identical
# attribution, byte for byte as written: every per-tag summary, rollup and
# record is built from per-tag state. ---
run_step(${CLI} clean --dir ${WORK_DIR}/multi --seed 7 --jobs 1
         --explain=${WORK_DIR}/serial.json)
run_step(${CLI} clean --dir ${WORK_DIR}/multi --seed 7 --jobs 8
         --explain=${WORK_DIR}/parallel.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/serial.json ${WORK_DIR}/parallel.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "explain report differs between jobs 1 and jobs 8")
endif()

# --- The explain subcommand: decode mode reads persisted summaries (and
# answers point queries), re-clean mode recomputes the attribution. ---
expect_output("kills by constraint"
              ${CLI} explain --store ${WORK_DIR}/multi/s.cts --tag 2)
# A point query answers either "is absent at t=..." (killed, exit 0) or
# "was not killed" (exit 0, or 1 when the candidate list was truncated and
# the answer is inconclusive) — every outcome names the queried tick.
execute_process(COMMAND ${CLI} explain --store ${WORK_DIR}/multi/s.cts
                --dir ${WORK_DIR}/multi --tag 2 --time 1 --location 0
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${out}${err}" "at t=1" found)
if(found EQUAL -1)
  message(FATAL_ERROR "point query did not name the tick:\n${out}\n${err}")
endif()
run_step(${CLI} explain --dir ${WORK_DIR}/multi --seed 7 --tag 2
         --json ${WORK_DIR}/reclean.json)
if(PYTHON AND CHECKER)
  run_step(${PYTHON} ${CHECKER} explain ${WORK_DIR}/reclean.json --min-tags 5)
endif()
expect_fail("has no explain summary in the store"
            ${CLI} explain --store ${WORK_DIR}/multi/s.cts --tag 77)

# --- A long tag: the a-priori mass of a 2 000-tick suffix underflows a
# double, yet the report must agree with the graph, which keeps location 17
# (F2.RoomB) at t=0. The kill list is truncated at later ticks, so the
# answer for t=0 also shows that a tick whose records were all retained
# still answers exactly. ---
file(MAKE_DIRECTORY ${WORK_DIR}/long)
run_step(${CLI} generate --floors 4 --duration 2000 --seed 1
         --out ${WORK_DIR}/long)
expect_output("at t=0 was not killed"
              ${CLI} explain --dir ${WORK_DIR}/long --time 0 --location 17
              --json ${WORK_DIR}/long.json)
if(PYTHON AND CHECKER)
  run_step(${PYTHON} ${CHECKER} explain ${WORK_DIR}/long.json --min-tags 1)
endif()

# --- Flag validation: bad values fail before any cleaning work. ---
expect_fail("--explain-top-edges must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --explain --explain-top-edges 0)
expect_fail("--explain-top-edges must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --explain --explain-top-edges abc)
expect_fail("--time and --location must be given together"
            ${CLI} explain --store ${WORK_DIR}/multi/s.cts --tag 2 --time 3)

message(STATUS "cli explain smoke test passed")
