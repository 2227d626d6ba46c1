# Smoke test of `clean --trace`: single-tag and multi-tag cleans must emit
# Chrome trace-event JSON with the documented spans, the provenance block
# must reach both the trace and --stats JSON, and malformed flag values must
# be diagnosed up front. Invoked by ctest as
#   cmake -DCLI=<binary> -DWORK_DIR=<scratch> -DTRACE_ENABLED=<ON|OFF>
#         [-DPYTHON=<python3> -DCHECKER=<report_validator.py>]
#         -P cli_trace_smoke.cmake

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

function(expect_contains file)
  file(READ ${file} payload)
  foreach(fragment ${ARGN})
    string(FIND "${payload}" "${fragment}" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${file} lacks '${fragment}'")
    endif()
  endforeach()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

if(NOT TRACE_ENABLED)
  # Trace-off builds must reject the flag with a clear diagnostic instead of
  # silently writing an empty trace.
  run_step(${CLI} generate --floors 2 --duration 30 --seed 5
           --out ${WORK_DIR})
  expect_fail("--trace requires a tracing-enabled build"
              ${CLI} clean --dir ${WORK_DIR} --trace)
  message(STATUS "cli trace smoke test passed (trace compiled out)")
  return()
endif()

# --- Single-tag: explicit trace path, stats with embedded provenance. ---
run_step(${CLI} generate --floors 2 --duration 80 --seed 5 --out ${WORK_DIR})
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5
         --trace=${WORK_DIR}/single.json --stats=${WORK_DIR}/stats.json
         --trace-buffer-events 65536)
if(NOT EXISTS ${WORK_DIR}/single.json)
  message(FATAL_ERROR "clean --trace did not write single.json")
endif()
expect_contains(${WORK_DIR}/single.json
  "\"traceEvents\"" "\"displayTimeUnit\"" "\"provenance\""
  "io_parse_readings" "forward_layer" "backward_sweep" "compact" "build")
expect_contains(${WORK_DIR}/stats.json
  "\"provenance\"" "\"input_digest\"" "\"constraint_digest\""
  "\"graph_digest\"" "\"status\": \"ok\"")

# --- Multi-tag: bare --trace defaults to DIR/trace.json; worker tracks and
# per-tag spans must appear. ---
file(MAKE_DIRECTORY ${WORK_DIR}/multi)
run_step(${CLI} generate --floors 2 --duration 40 --seed 5 --tags 6
         --out ${WORK_DIR}/multi)
run_step(${CLI} clean --dir ${WORK_DIR}/multi --seed 5 --jobs 3 --trace)
if(NOT EXISTS ${WORK_DIR}/multi/trace.json)
  message(FATAL_ERROR "bare --trace did not write DIR/trace.json")
endif()
expect_contains(${WORK_DIR}/multi/trace.json
  "\"traceEvents\"" "batch_clean_all" "tag_clean" "arena_prepare"
  "worker-0" "io_parse_readings_multi" "\"provenance\"")

# Deep structural validation (phase fields, B/E balance per track) when a
# Python interpreter is available.
if(PYTHON AND CHECKER)
  run_step(${PYTHON} ${CHECKER} trace ${WORK_DIR}/single.json
           --require build --require forward_layer --require backward_sweep)
  run_step(${PYTHON} ${CHECKER} trace ${WORK_DIR}/multi/trace.json
           --require tag_clean --require batch_clean_all)
endif()

# A trace session must not perturb the cleaning result: graphs from a traced
# run equal the untraced baseline byte for byte.
file(MAKE_DIRECTORY ${WORK_DIR}/plain)
run_step(${CLI} generate --floors 2 --duration 80 --seed 5
         --out ${WORK_DIR}/plain)
run_step(${CLI} clean --dir ${WORK_DIR}/plain --seed 5)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/graph.ctg ${WORK_DIR}/plain/graph.ctg
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "traced clean produced a different graph.ctg")
endif()

# --- Flag validation: bad values fail before any cleaning work. ---
expect_fail("--trace-buffer-events must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --trace
            --trace-buffer-events 0)
expect_fail("--trace-buffer-events must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --trace
            --trace-buffer-events abc)
expect_fail("cannot write trace file"
            ${CLI} clean --dir ${WORK_DIR}
            --trace=${WORK_DIR}/no-such-subdir/trace.json)

message(STATUS "cli trace smoke test passed")
