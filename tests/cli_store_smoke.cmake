# Smoke test of the binary ct-store CLI workflow: clean --store writes one
# container for a multi-tag workload; store ls/verify/get/put/compact
# operate on it; stay --store answers queries zero-copy off the mapped
# blob; and the text and binary pipelines stay interchangeable (a graph
# extracted from the store is byte-identical to the text file the same
# clean writes without --store). Invoked by ctest as
#   cmake -DCLI=<path-to-binary> -DWORK_DIR=<scratch> -P cli_store_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
  set(step_output "${out}" PARENT_SCOPE)
endfunction()

function(run_step_expect_failure)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "step unexpectedly succeeded: ${ARGV}\n${out}")
  endif()
endfunction()

set(STORE ${WORK_DIR}/tags.cts)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run_step(${CLI} generate --floors 2 --duration 60 --seed 5 --tags 4
         --out ${WORK_DIR})

# Clean into the binary store; no per-tag text graphs appear.
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --store ${STORE})
if(NOT EXISTS ${STORE})
  message(FATAL_ERROR "clean --store did not write ${STORE}")
endif()
if(EXISTS ${WORK_DIR}/graph_0.ctg)
  message(FATAL_ERROR "clean --store also wrote text graphs")
endif()

# ls shows all four tags with provenance digests; verify deep-checks them.
run_step(${CLI} store ls --store ${STORE})
foreach(tag 0 1 2 3)
  if(NOT step_output MATCHES "tag ${tag}")
    message(FATAL_ERROR "store ls is missing tag ${tag}:\n${step_output}")
  endif()
endforeach()
if(NOT step_output MATCHES "generation 1, 4 blobs")
  message(FATAL_ERROR "store ls summary is wrong:\n${step_output}")
endif()
run_step(${CLI} store verify --store ${STORE})
if(NOT step_output MATCHES "4 blobs, 0 explain summaries verified ok")
  message(FATAL_ERROR "store verify summary is wrong:\n${step_output}")
endif()

# Text interop: a graph extracted from the store must be byte-identical to
# what the same clean writes as text without --store.
file(MAKE_DIRECTORY ${WORK_DIR}/text)
foreach(artifact building.map readings.csv)
  file(COPY ${WORK_DIR}/${artifact} DESTINATION ${WORK_DIR}/text)
endforeach()
run_step(${CLI} clean --dir ${WORK_DIR}/text --seed 5)
run_step(${CLI} store get --store ${STORE} --tag 2 --out ${WORK_DIR}/tag2.ctg)
file(READ ${WORK_DIR}/tag2.ctg store_graph)
file(READ ${WORK_DIR}/text/graph_2.ctg text_graph)
if(NOT store_graph STREQUAL text_graph)
  message(FATAL_ERROR "store get output differs from the text pipeline")
endif()

# put round trip: re-import the text graph under a new tag, read it back.
run_step(${CLI} store put --store ${STORE} --tag 100
         --in ${WORK_DIR}/tag2.ctg)
run_step(${CLI} store get --store ${STORE} --tag 100
         --out ${WORK_DIR}/tag100.ctg)
file(READ ${WORK_DIR}/tag100.ctg reimported)
if(NOT reimported STREQUAL store_graph)
  message(FATAL_ERROR "store put/get round trip changed the graph")
endif()

# Compaction keeps every live blob loadable and verifiable.
run_step(${CLI} store compact --store ${STORE})
run_step(${CLI} store verify --store ${STORE})
if(NOT step_output MATCHES "5 blobs, 0 explain summaries verified ok")
  message(FATAL_ERROR "store verify after compact is wrong:\n${step_output}")
endif()
run_step(${CLI} store get --store ${STORE} --tag 100
         --out ${WORK_DIR}/tag100_compacted.ctg)
file(READ ${WORK_DIR}/tag100_compacted.ctg after_compact)
if(NOT after_compact STREQUAL store_graph)
  message(FATAL_ERROR "compaction changed a stored graph")
endif()

# Zero-copy query path straight off the mapped container.
run_step(${CLI} stay --dir ${WORK_DIR} --store ${STORE} --tag 0 --time 5)
if(NOT step_output MATCHES "P\\(location at t=5\\)")
  message(FATAL_ERROR "stay --store printed no distribution:\n${step_output}")
endif()

# Diagnostics: a missing tag and a non-store file must fail cleanly.
run_step_expect_failure(${CLI} store get --store ${STORE} --tag 999
                        --out ${WORK_DIR}/nope.ctg)
file(WRITE ${WORK_DIR}/not_a_store.cts "this is not a ct-store container")
run_step_expect_failure(${CLI} store verify
                        --store ${WORK_DIR}/not_a_store.cts)

# Long TL lists: on 8 floors some node keys carry more than the four
# departures a DepartureList holds inline. Storing (and digesting) such a
# graph must work end to end and leave a store that deep-verifies.
set(LONG_TL_DIR ${WORK_DIR}/long_tl)
file(MAKE_DIRECTORY ${LONG_TL_DIR})
run_step(${CLI} generate --floors 8 --duration 120 --seed 3
         --out ${LONG_TL_DIR}/)
run_step(${CLI} clean --dir ${LONG_TL_DIR} --store ${LONG_TL_DIR}/g.cts)
run_step(${CLI} store verify --store ${LONG_TL_DIR}/g.cts)
if(NOT step_output MATCHES "1 blobs, 0 explain summaries verified ok")
  message(FATAL_ERROR "long-TL store verify is wrong:\n${step_output}")
endif()

message(STATUS "cli store smoke test passed")
