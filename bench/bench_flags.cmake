# Strict integer flags of the benches: every malformed, zero or negative
# value below must exit 1 before any work, with "<bench>: <flag> must be
# a positive|non-negative integer, got '<value>'" on stderr. Before the
# benches shared bench_util.h's strict reader, these values were read with
# atoi: core_build --reps abc or 0 crashed on an empty timing list,
# --ticks abc aborted inside the trajectory generator, and a negative
# --seed or a zero --tags / --jobs ran to exit 0. Invoked by ctest as
#   cmake -DCORE_BUILD=<bin> -DBATCH_THROUGHPUT=<bin> -DSTORE_ROUNDTRIP=<bin>
#         -DWORK_DIR=<scratch> -P bench_flags.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# expect_bad_flag(<bench> <binary> <flag> <value> <kind> <args>...): runs
# the binary with `<flag> <value> <args>` and requires exit 1 with the
# message naming bench, flag and value. A bench reads the first occurrence
# of a flag, so <args> can hold small valid values for every flag. A list
# flag names its bad entry, which the cases below put last.
function(expect_bad_flag bench binary flag value kind)
  execute_process(
    COMMAND ${binary} ${flag} ${value} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR
            "${bench} ${flag} ${value}: want exit 1, got '${code}'\n${err}")
  endif()
  string(REGEX REPLACE "^.*," "" entry "${value}")
  set(want "${bench}: ${flag} must be a ${kind} integer, got '${entry}'")
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${bench} ${flag} ${value}: stderr lacks \"${want}\":\n${err}")
  endif()
endfunction()

set(core_args --ticks 20 --reps 1 --out ${WORK_DIR}/core.json)
expect_bad_flag(core_build ${CORE_BUILD} --reps abc positive ${core_args})
expect_bad_flag(core_build ${CORE_BUILD} --reps 0 positive ${core_args})
expect_bad_flag(core_build ${CORE_BUILD} --ticks abc positive ${core_args})
expect_bad_flag(core_build ${CORE_BUILD} --ticks 100,x positive ${core_args})
expect_bad_flag(core_build ${CORE_BUILD} --seed -3 non-negative ${core_args})

set(batch_args --tags 2 --ticks 10 --jobs 1 --out ${WORK_DIR}/batch.json)
expect_bad_flag(batch_throughput ${BATCH_THROUGHPUT} --tags abc positive
                ${batch_args})
expect_bad_flag(batch_throughput ${BATCH_THROUGHPUT} --tags 0 positive
                ${batch_args})
expect_bad_flag(batch_throughput ${BATCH_THROUGHPUT} --ticks x positive
                ${batch_args})
expect_bad_flag(batch_throughput ${BATCH_THROUGHPUT} --jobs 0 positive
                ${batch_args})
expect_bad_flag(batch_throughput ${BATCH_THROUGHPUT} --seed -1 non-negative
                ${batch_args})

set(store_args --ticks 20 --reps 1 --out ${WORK_DIR}/store.json
               --work ${WORK_DIR}/store.cts)
expect_bad_flag(store_roundtrip ${STORE_ROUNDTRIP} --reps abc positive
                ${store_args})
expect_bad_flag(store_roundtrip ${STORE_ROUNDTRIP} --ticks abc positive
                ${store_args})
expect_bad_flag(store_roundtrip ${STORE_ROUNDTRIP} --seed -2 non-negative
                ${store_args})

# Nothing ran, so nothing was written.
file(GLOB written ${WORK_DIR}/*)
if(written)
  message(FATAL_ERROR "a rejected run wrote files: ${written}")
endif()

message(STATUS "bench flag test passed")
