# expect_exit.cmake — run a bench and require an exact exit code:
#   cmake -DBENCH=<exe> -DARGS="<args>" -DEXPECT=<code> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BENCH} ${ARGS}: exit '${rc}', expected ${EXPECT}\n${err}")
endif()
message(STATUS "${BENCH} ${ARGS}: exit ${rc}: ${err}")
