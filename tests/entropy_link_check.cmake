# Fails if an object of libblockplane compiled outside src/sim references
# ambient entropy or a wall clock. Every replica must compute the same
# state from the same log, so all randomness comes from the seeded
# simulator RNG (sim::Rng) and all time from Simulator::Now. The check reads
# the symbols the compiler left in each object, so it sees through helpers,
# inline functions and headers: whatever a call chain reaches is in the
# object that starts it.
#
#   cmake -DNM=<nm> "-DOBJECTS=<object;...>" -P entropy_link_check.cmake
#
# Objects are picked by source directory, from their paths in the build
# tree, not by archive member name: core/node.cc and paxos/node.cc are both
# node.cc.o inside the archive.

if(NOT NM OR NOT OBJECTS)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECTS=<list> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(violations "")
set(checked 0)
foreach(object IN LISTS OBJECTS)
  if(object MATCHES "/sim/[^/]+$")
    continue()  # the simulator owns the clock and the RNG
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND ${NM} -C ${object}
                  OUTPUT_VARIABLE symbols
                  ERROR_VARIABLE nm_error
                  RESULT_VARIABLE nm_result)
  if(NOT nm_result EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}: ${nm_error}")
  endif()
  string(REGEX MATCHALL "[^\n]+" lines "${symbols}")
  foreach(line IN LISTS lines)
    # "<address or blanks> <type> <name>"
    if(NOT line MATCHES "^([0-9a-fA-F]+|[ ]+) [A-Za-z] (.+)$")
      continue()
    endif()
    set(name "${CMAKE_MATCH_2}")
    if(name MATCHES "random_device|mersenne_twister_engine|_clock::now\\(" OR
       name MATCHES "^(rand|srand|time|clock_gettime|gettimeofday|getrandom|timespec_get)(@.*)?$")
      list(APPEND violations "${object}: ${name}")
    endif()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no objects outside src/sim to check")
endif()
if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "ambient entropy or wall-clock time outside src/sim (use sim::Rng "
          "and Simulator::Now):\n  ${report}")
endif()
message(STATUS "entropy link check: ${checked} objects clean")
