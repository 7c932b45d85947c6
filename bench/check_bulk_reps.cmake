# ablation_bulk's steal-storm rates must not depend on --reps: every rep
# drains the same batch, so steals/s, tasks/s and ops/task at --reps 2 stay
# within 10% of --reps 1. A counter that covers fewer reps than the drain
# time it is divided by halves the rates instead. Run by ctest as
#   cmake -DBULK=<ablation_bulk> -P check_bulk_reps.cmake

# Storm rows of one run, as "bulk;steals/s;tasks/s;ops/task*100" entries.
function(storm_rows reps out)
  execute_process(COMMAND ${BULK} --csv --reps ${reps} --npes 16
                          --tasks 2000 --depth 6
                  OUTPUT_VARIABLE text ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ablation_bulk --reps ${reps}: exit ${rc}")
  endif()
  string(REPLACE "\n" ";" lines "${text}")
  set(rows "")
  set(table 0)
  foreach(line IN LISTS lines)
    if(line MATCHES "^# ")
      math(EXPR table "${table} + 1")
    elseif(table EQUAL 1 AND line MATCHES
           "^([0-9]+),[^,]*,([0-9]+),([0-9]+),([0-9]+)\\.([0-9][0-9]),")
      list(APPEND rows
           "${CMAKE_MATCH_1}:${CMAKE_MATCH_2}:${CMAKE_MATCH_3}:${CMAKE_MATCH_4}${CMAKE_MATCH_5}")
    endif()
  endforeach()
  list(LENGTH rows n)
  if(NOT n EQUAL 4)
    message(FATAL_ERROR "ablation_bulk --reps ${reps}: ${n} storm rows, "
                        "expected 4:\n${text}")
  endif()
  set(${out} "${rows}" PARENT_SCOPE)
endfunction()

storm_rows(1 one)
storm_rows(2 two)
set(names "steals/s" "tasks/s" "ops/task")
foreach(i RANGE 3)
  list(GET one ${i} a)
  list(GET two ${i} b)
  string(REPLACE ":" ";" a "${a}")
  string(REPLACE ":" ";" b "${b}")
  list(GET a 0 bulk)
  foreach(col RANGE 1 3)
    list(GET a ${col} x)
    list(GET b ${col} y)
    math(EXPR name_at "${col} - 1")
    list(GET names ${name_at} name)
    math(EXPR diff "${x} - ${y}")
    if(diff LESS 0)
      math(EXPR diff "-(${diff})")
    endif()
    math(EXPR scaled "${diff} * 10")
    if(scaled GREATER x)
      message(FATAL_ERROR "bulk=${bulk} ${name}: --reps 1 gives ${x}, "
                          "--reps 2 gives ${y} (more than 10% apart; "
                          "ops/task in hundredths)")
    endif()
  endforeach()
endforeach()
