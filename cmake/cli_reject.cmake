# CLI edge check: a malformed or removed argument is a usage error.
#
#   cmake -DBINARIES=<bin;bin;...> -DARGS=<arg;arg;...> \
#         -DEXPECT=<diagnostic> -P cli_reject.cmake
#
# Runs every binary once per argument in ARGS. Each run must exit with
# status 2 (usage error) and print EXPECT on stderr; exit 0 would mean
# the argument was silently accepted and a campaign ran.
foreach(var BINARIES ARGS EXPECT)
  if(NOT ${var})
    message(FATAL_ERROR "cli_reject: ${var} not set")
  endif()
endforeach()
foreach(bin IN LISTS BINARIES)
  foreach(arg IN LISTS ARGS)
    execute_process(COMMAND ${bin} ${arg}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 30)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${bin} ${arg}: exit status '${rc}', expected 2\n${err}")
    endif()
    string(FIND "${err}" "${EXPECT}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${bin} ${arg}: stderr lacks '${EXPECT}'\n${err}")
    endif()
  endforeach()
endforeach()
list(LENGTH BINARIES count)
message(STATUS "cli_reject: ${count} binaries reject ${ARGS}")
