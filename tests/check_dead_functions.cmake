# Verdicts of scripts/dead_functions.py's compare step on small symbol
# lists, without a build. Run by ctest as
#   cmake -DPYTHON=<python3> -DSCRIPT=<dead_functions.py> -DWORK=<dir>
#         -P check_dead_functions.cmake
# A clean list passes; an unlisted dead function and a stale allowlist
# line (kept by a program, or defined nowhere) each fail, naming it.

set(defined
  _ZNK3sws3net8Topology8distanceEii           # kept
  _ZN3sws5check8Explorer3runEv                # dead, namespace line
  _ZN3sws3net5Fiber13stacks_mappedEv          # dead, allowlisted
  _ZN3sws6to_hexB5cxx11ERKSt5arrayIhLm20EE    # dead, allowlisted, ABI tag
  _ZNSt6vectorIN3sws4core4TaskESaIS2_EE9push_backERKS2_)  # std::, ignored
set(kept _ZNK3sws3net8Topology8distanceEii)
set(allow
  "sws::check::  the explorer harness"
  "sws::net::Fiber::stacks_mapped  the no-remap property"
  "sws::to_hex  a fixture reason")

function(write name)
  list(JOIN ARGN "\n" text)
  file(WRITE ${WORK}/${name} "${text}\n")
endfunction()

# Runs compare; fails unless it exits `want` and, on failure, names `what`.
function(expect want what defined_file allow_file)
  execute_process(COMMAND ${PYTHON} ${SCRIPT} compare
                          --defined ${WORK}/${defined_file}
                          --kept ${WORK}/kept.txt
                          --allow ${WORK}/${allow_file}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL want)
    message(FATAL_ERROR "${defined_file} + ${allow_file}: exit ${rc}, "
                        "expected ${want}:\n${out}${err}")
  endif()
  string(FIND "${out}" "${what}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${defined_file} + ${allow_file}: output does not "
                        "name '${what}':\n${out}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK})
write(defined.txt ${defined})
write(kept.txt ${kept})
write(clean.allow ${allow})
expect(0 "4 sws symbols defined, 3 functions kept by no program"
       defined.txt clean.allow)

write(unlisted.txt ${defined} _ZNK3sws3net8Topology5peersEii)
expect(1 "dead: sws::net::Topology::peers(int, int) const"
       unlisted.txt clean.allow)

write(kept_line.allow ${allow} "sws::net::Topology::distance  a reason")
expect(1 "stale line, a program now keeps it: sws::net::Topology::distance"
       defined.txt kept_line.allow)

write(gone_line.allow ${allow} "sws::net::Topology::group_of  a reason")
expect(1 "stale line, no archive defines it: sws::net::Topology::group_of"
       defined.txt gone_line.allow)

write(no_reason.allow ${allow} "sws::net::Topology::group_of")
expect(1 "no reason given" defined.txt no_reason.allow)
