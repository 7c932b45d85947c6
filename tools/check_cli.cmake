# Command-line contract of sws-analyze, run by ctest as
#   cmake -DANALYZE=<sws-analyze> -DTIMELINE=<steal_timeline>
#         -DTRACE=<scratch trace path> -P check_cli.cmake
# --diff alone compares two traces (exit 0); --diff next to a mode flag or
# --timeseries is a usage error (exit 2), never a silently ignored flag, and
# so is a removed option such as --window-ns (the scan window is always a
# 64th of the run).

execute_process(
  COMMAND ${TIMELINE} --npes 2 --queue sws --chrome-json ${TRACE}
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "steal_timeline failed (${rc})")
endif()

function(expect_exit code)
  execute_process(COMMAND ${ANALYZE} ${ARGN}
                  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL code)
    string(JOIN " " args ${ARGN})
    message(FATAL_ERROR "sws-analyze ${args}: exit ${rc}, expected ${code}")
  endif()
endfunction()

expect_exit(0 --diff ${TRACE} ${TRACE})
expect_exit(2 --diff --self-check ${TRACE} ${TRACE})
expect_exit(2 --diff --report ${TRACE} ${TRACE})
expect_exit(2 --diff --timeseries=${TRACE} ${TRACE} ${TRACE})
expect_exit(2 --window-ns=1000 ${TRACE})
