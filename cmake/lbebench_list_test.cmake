# `lbebench --list` must succeed, and every suite it lists must appear in
# `lbebench --help`, so the usage text cannot fall behind the registry.
# Invoked as:
#   cmake -DLBEBENCH=<lbebench> -P lbebench_list_test.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${LBEBENCH} --list
                OUTPUT_VARIABLE listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbebench --list failed (${status})")
endif()
execute_process(COMMAND ${LBEBENCH} --help
                OUTPUT_VARIABLE help RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "lbebench --help failed (${status})")
endif()

# --list rows are "<name> <suite> <description>" after one header row.
string(REPLACE "\n" ";" rows "${listing}")
list(REMOVE_AT rows 0)
set(suites "")
foreach(row IN LISTS rows)
  if(row MATCHES "^[^ ]+ +([^ ]+)")
    list(APPEND suites "${CMAKE_MATCH_1}")
  endif()
endforeach()
list(REMOVE_DUPLICATES suites)
if(NOT suites)
  message(FATAL_ERROR "lbebench --list printed no suites:\n${listing}")
endif()

# --help names the suites as "--suite a|b|c]".
if(NOT help MATCHES "--suite ([a-z0-9_|]+)")
  message(FATAL_ERROR "lbebench --help names no suites:\n${help}")
endif()
string(REPLACE "|" ";" help_suites "${CMAKE_MATCH_1}")
foreach(suite IN LISTS suites)
  if(NOT suite IN_LIST help_suites)
    message(FATAL_ERROR "suite '${suite}' is missing from lbebench --help:\n"
                        "${help}")
  endif()
endforeach()
list(LENGTH suites count)
message(STATUS "all ${count} listed suites appear in lbebench --help")
