# Command-line contract shared by every bench and example binary, run by
# ctest as
#   cmake -DFIG2=<fig2_comm_counts> -DENGINE=<engine_scale>
#         -DQUICKSTART=<quickstart> -P check_options.cmake
# An unknown option (a typo, or a flag that was removed) is a usage error:
# exit 2 with the key named on stderr, before any work runs — never a
# silently ignored flag that leaves the run on its defaults.

function(expect_unknown key)
  execute_process(COMMAND ${ARGN} OUTPUT_QUIET ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  string(JOIN " " cmd ${ARGN})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${cmd}: exit ${rc}, expected 2")
  endif()
  string(FIND "${err}" "unknown option --${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${cmd}: stderr does not name --${key}: ${err}")
  endif()
endfunction()

expect_unknown(no-such-flag ${FIG2} --no-such-flag 1)
expect_unknown(term-chek ${ENGINE} --term-chek 9)
expect_unknown(no-such-flag ${QUICKSTART} --npes 2 --no-such-flag)
expect_unknown(mode ${QUICKSTART} --npes 2 --mode real)

# Known options still run.
execute_process(COMMAND ${FIG2} --csv OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig2_comm_counts --csv: exit ${rc}, expected 0")
endif()
