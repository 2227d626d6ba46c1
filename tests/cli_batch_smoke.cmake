# Smoke test of the multi-tag CLI workflow: generate --tags writes the
# tag,time,readers readings file plus per-tag truths, and clean --jobs
# sniffs the format, runs the batch engine and writes one graph per tag, or
# one .cts store.
# Invoked by ctest as
#   cmake -DCLI=<path-to-binary> -DWORK_DIR=<scratch> -P cli_batch_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run_step(${CLI} generate --floors 2 --duration 60 --seed 5 --tags 4
         --out ${WORK_DIR})
foreach(artifact building.map readings.csv
        truth_0.txt truth_1.txt truth_2.txt truth_3.txt)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "generate --tags 4 did not write ${artifact}")
  endif()
endforeach()
file(READ ${WORK_DIR}/readings.csv header LIMIT 16)
if(NOT header MATCHES "^tag,time,readers")
  message(FATAL_ERROR "generate --tags did not write the multi-tag header")
endif()

run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --jobs 4 --audit)
foreach(tag 0 1 2 3)
  if(NOT EXISTS ${WORK_DIR}/graph_${tag}.ctg)
    message(FATAL_ERROR "clean --jobs did not write graph_${tag}.ctg")
  endif()
endforeach()

# Serial and parallel cleaning must produce identical graph files.
file(MAKE_DIRECTORY ${WORK_DIR}/serial)
foreach(artifact building.map readings.csv)
  file(COPY ${WORK_DIR}/${artifact} DESTINATION ${WORK_DIR}/serial)
endforeach()
run_step(${CLI} clean --dir ${WORK_DIR}/serial --seed 5 --jobs 1)
foreach(tag 0 1 2 3)
  file(READ ${WORK_DIR}/graph_${tag}.ctg parallel_graph)
  file(READ ${WORK_DIR}/serial/graph_${tag}.ctg serial_graph)
  if(NOT parallel_graph STREQUAL serial_graph)
    message(FATAL_ERROR "graph_${tag}.ctg differs between --jobs 4 and --jobs 1")
  endif()
endforeach()

# So must their stores: clean --store appends the blobs in input order
# whichever lane finishes first, so the .cts bytes are the same at every
# job count.
foreach(jobs 1 4)
  file(REMOVE ${WORK_DIR}/jobs_${jobs}.cts)
  run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --jobs ${jobs}
           --store ${WORK_DIR}/jobs_${jobs}.cts)
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/jobs_1.cts ${WORK_DIR}/jobs_4.cts
                RESULT_VARIABLE stores_differ)
if(NOT stores_differ EQUAL 0)
  message(FATAL_ERROR "clean --store wrote different .cts bytes at --jobs 4 and --jobs 1")
endif()

message(STATUS "cli batch smoke test passed")
