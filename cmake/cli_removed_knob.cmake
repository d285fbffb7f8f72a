# CLI edge check for the removed --batch knob.
#
#   cmake -DBINARIES=<bin;bin;...> -P cli_removed_knob.cmake
#
# Runs every binary with --batch=auto and --batch=1. Each must exit with
# status 2 (usage error) and name the removed flag on stderr; exit 0
# would mean the knob was silently accepted and a campaign ran.
if(NOT BINARIES)
  message(FATAL_ERROR "cli_removed_knob: BINARIES not set")
endif()
foreach(bin IN LISTS BINARIES)
  foreach(arg --batch=auto --batch=1)
    execute_process(COMMAND ${bin} ${arg}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 30)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${bin} ${arg}: exit status '${rc}', expected 2\n${err}")
    endif()
    string(FIND "${err}" "--batch was removed" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${bin} ${arg}: no removed-knob diagnostic\n${err}")
    endif()
  endforeach()
endforeach()
list(LENGTH BINARIES count)
message(STATUS "cli_removed_knob: ${count} binaries reject --batch")
