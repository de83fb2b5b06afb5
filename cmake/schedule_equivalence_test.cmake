# Schedule-equivalence acceptance test (ctest `lbectl_schedule_equivalence`):
# work stealing is a pure execution-order change — the same search run with
# --schedule stealing must produce a psms.tsv byte-identical to
# --schedule lbe_static, on every rank transport. The merge's strict total
# order over global PSM ids is what makes this hold no matter which rank
# executed which batch or how a victim/thief race resolved; this script is
# the end-to-end check that no layer between the CLI and the wire breaks it.
# The batch size is kept small so the queue is deep enough for grants to
# actually fire when scheduling jitter allows (byte-identity must hold
# whether or not any batch migrates).
# The calibrated schedule re-partitions from a probe timed on kThreads,
# whose rank clocks are measured wall time, so its weights (and the
# placement) vary from run to run: only the source_rank column may move,
# and the run must either re-plan or warn that its probe was degenerate.
# Invoked as:
#   cmake -DLBECTL=<lbectl> -DWORK_DIR=<scratch> -P schedule_equivalence_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(COMMON --entries 12000 --num_queries 32 --ranks 4 --batch 4 --seed 2019)

foreach(backend virtual threads process)
  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --backend ${backend}
            --schedule lbe_static --out ${WORK_DIR}/static_${backend}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "lbectl search --schedule lbe_static --backend ${backend} "
            "failed (${status})")
  endif()

  execute_process(
    COMMAND ${LBECTL} search ${COMMON} --backend ${backend}
            --schedule stealing --steal_threshold 1.0
            --out ${WORK_DIR}/stealing_${backend}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "lbectl search --schedule stealing --backend ${backend} "
            "failed (${status})")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/static_${backend}/psms.tsv
            ${WORK_DIR}/stealing_${backend}/psms.tsv
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "--schedule stealing psms.tsv differs from lbe_static on "
            "--backend ${backend}")
  endif()
  message(STATUS
          "--backend ${backend}: stealing psms.tsv is byte-identical to "
          "lbe_static")
endforeach()

# The stealing run must surface its scheduling telemetry: metrics.csv gains
# the batches_stolen and cost-model error columns.
file(READ ${WORK_DIR}/stealing_virtual/metrics.csv metrics)
foreach(column batches_stolen predicted_cost pred_rel_err_mean)
  if(NOT metrics MATCHES "${column}")
    message(FATAL_ERROR "metrics.csv is missing the ${column} column")
  endif()
endforeach()
message(STATUS "stealing metrics.csv carries the scheduling columns")

# Calibrated on threads: every psms.tsv column but source_rank matches the
# static run, and the run either re-planned or kept the static placement
# with a degenerate-probe warning.
execute_process(
  COMMAND ${LBECTL} search ${COMMON} --backend threads
          --schedule calibrated --out ${WORK_DIR}/calibrated_threads
  OUTPUT_VARIABLE log ERROR_VARIABLE log
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
          "lbectl search --schedule calibrated --backend threads failed "
          "(${status}):\n${log}")
endif()
if(NOT log MATCHES "re-planned from a"
   AND NOT log MATCHES "calibration probe was degenerate")
  message(FATAL_ERROR
          "--schedule calibrated neither re-planned nor warned of a "
          "degenerate probe:\n${log}")
endif()
set(field "[^\t\n]*\t")
set(before_source_rank "(${field}${field}${field}${field}${field}${field}${field})${field}")
foreach(run static_threads calibrated_threads)
  file(READ ${WORK_DIR}/${run}/psms.tsv rows)
  string(REGEX REPLACE "${before_source_rank}" "\\1" ${run} "${rows}")
endforeach()
if(NOT static_threads STREQUAL calibrated_threads)
  message(FATAL_ERROR
          "--schedule calibrated psms.tsv differs from lbe_static on "
          "--backend threads beyond the source_rank column")
endif()
message(STATUS
        "--backend threads: calibrated psms.tsv matches lbe_static up to "
        "source_rank")
