# SIMD equivalence acceptance test (ctest `lbectl_simd_equivalence`):
# one prepared bundle, searched warm (mapped) at every wider decode kernel
# the CPU supports (--simd avx2), must produce a psms.tsv byte-identical to
# the same warm search decoded by the scalar kernel (--simd scalar).
# Unsupported levels are skipped with a notice — lbectl clamps them to the
# best available kernel, so a cmp there would only re-test the fallback.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P simd_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 16 --ranks 4 --seed 2019)

execute_process(
  COMMAND ${LBECTL} prepare ${COMMON} --out ${WORK_DIR}/prep
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbectl prepare failed (${status})")
endif()

# Baseline: mapped warm start pinned to the scalar kernel. Every search
# decodes the packed postings, so the baseline must name its kernel:
# otherwise `auto` would make the AVX2 kernel its own oracle. (That the
# mapped path itself matches a cold rebuild is lbectl_warm_start_identical.)
execute_process(
  COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
          --index ${WORK_DIR}/prep --simd scalar
          --out ${WORK_DIR}/baseline
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "baseline lbectl search --simd scalar failed (${status})")
endif()

foreach(simd_level avx2)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --plan ${WORK_DIR}/prep/plan.lbe
            --index ${WORK_DIR}/prep --simd ${simd_level}
            --out ${WORK_DIR}/simd_${simd_level}
    OUTPUT_VARIABLE search_output
    ERROR_VARIABLE search_stderr
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "lbectl search --simd ${simd_level} failed (${status})")
  endif()
  if(search_stderr MATCHES "not supported by this CPU")
    message(STATUS
            "simd level '${simd_level}' unsupported on this CPU; skipped")
    continue()
  endif()
  if(NOT search_output MATCHES "warm start: loaded")
    message(FATAL_ERROR
            "search --simd ${simd_level} did not report a warm start:\n"
            "${search_output}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/baseline/psms.tsv
            ${WORK_DIR}/simd_${simd_level}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "--simd ${simd_level} psms.tsv differs from the scalar baseline")
  endif()
  message(STATUS
          "--simd ${simd_level} psms.tsv is byte-identical to the scalar "
          "baseline")
endforeach()

# A level that names no kernel is a configuration error (exit 2) that
# names the valid levels.
execute_process(
  COMMAND ${LBECTL} search ${COMMON} --simd sse --out ${WORK_DIR}/simd_sse
  OUTPUT_VARIABLE search_output
  ERROR_VARIABLE search_stderr
  RESULT_VARIABLE status)
if(NOT status EQUAL 2 OR NOT search_stderr MATCHES "auto\\|scalar\\|avx2")
  message(FATAL_ERROR
          "--simd sse should exit 2 naming auto|scalar|avx2, got ${status}:\n"
          "${search_stderr}")
endif()
