# Warm-start acceptance test (ctest `lbectl_warm_start_identical`):
# prepare writes the plan + index bundle, then a warm `search --index` must
# produce a byte-identical psms.tsv to a cold rebuild. The warm path maps
# every rank file and materializes chunks lazily on first query touch.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P warm_start_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 16 --ranks 4 --seed 2019)

execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()

execute_process(
  COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
          --out ${WORK_DIR}/cold
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cold lbectl search failed (${status})")
endif()

execute_process(
  COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
          --index ${WORK_DIR}/prep --out ${WORK_DIR}/warm
  OUTPUT_VARIABLE warm_output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "warm lbectl search failed (${status})")
endif()
if(NOT warm_output MATCHES "warm start: loaded .* \\(mmap, lazy chunks\\)")
  message(FATAL_ERROR
          "warm search did not report a mapped warm start:\n${warm_output}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/cold/psms.tsv ${WORK_DIR}/warm/psms.tsv
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "warm-start psms.tsv differs from the cold rebuild")
endif()
message(STATUS "warm-start psms.tsv is byte-identical to the cold rebuild")

# Mapping is the only warm-start path, so there is no load-mode switch:
# `--mmap` is an unknown key (exit 2), never silently ignored.
execute_process(
  COMMAND ${LBECTL} search ${COMMON} --mmap off --out ${WORK_DIR}/mmap_off
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "search --mmap off should exit 2, got ${status}")
endif()
