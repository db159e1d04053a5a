# Reads the symbols the compiler left in each object of libblockplane and
# fails on one a replica must not depend on. Every replica must compute the
# same state from the same log (DESIGN.md §11). The check sees through
# helpers, inline functions and headers: whatever a call chain reaches is
# in the object that starts it.
#
#   CHECK=entropy  ambient entropy or a wall clock. All randomness comes
#                  from the seeded simulator RNG (sim::Rng) and all time
#                  from Simulator::Now.
#   CHECK=float    a symbol that names double or float: a function that
#                  takes or returns floating point, defined in the object
#                  or called from it. Consensus math is integer math. One
#                  is exempt: the constructor of the std hash containers'
#                  rehash policy, which stores its default load factor and
#                  which an unoptimized build leaves out of line.
#
#   cmake -DCHECK=<entropy|float> -DSKIP=<regex> -DNM=<nm>
#         "-DOBJECTS=<object;...>" -P entropy_link_check.cmake
#
# Objects whose path matches SKIP are not checked. They are picked by
# source directory, from their paths in the build tree, not by archive
# member name: core/node.cc and paxos/node.cc are both node.cc.o inside the
# archive.

if(NOT NM OR NOT OBJECTS OR NOT SKIP)
  message(FATAL_ERROR "usage: cmake -DCHECK=<entropy|float> -DSKIP=<regex> "
                      "-DNM=<nm> -DOBJECTS=<list> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(CHECK STREQUAL "entropy")
  set(what "ambient entropy or wall-clock time outside src/sim (use sim::Rng and Simulator::Now)")
elseif(CHECK STREQUAL "float")
  set(what "floating point outside the allowlist (src/net, src/chaos, sim/random.cc, common/metrics.cc; consensus math is integer math)")
else()
  message(FATAL_ERROR "CHECK must be entropy or float, not '${CHECK}'")
endif()

set(violations "")
set(checked 0)
foreach(object IN LISTS OBJECTS)
  if(object MATCHES "${SKIP}")
    continue()
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
    if(NOT line MATCHES "^([0-9a-fA-F]+|[ ]+) ([A-Za-z]) (.+)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_2}")
    set(name "${CMAKE_MATCH_3}")
    if(CHECK STREQUAL "entropy")
      if(name MATCHES "random_device|mersenne_twister_engine|_clock::now\\(" OR
         name MATCHES "^(rand|srand|time|clock_gettime|gettimeofday|getrandom|timespec_get)(@.*)?$")
        list(APPEND violations "${object}: ${type} ${name}")
      endif()
    elseif(name MATCHES "(^|[^A-Za-z0-9_])(double|float)([^A-Za-z0-9_]|$)" AND
           NOT name STREQUAL "std::__detail::_Prime_rehash_policy::_Prime_rehash_policy(float)")
      list(APPEND violations "${object}: ${type} ${name}")
    endif()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no objects left to check after skipping '${SKIP}'")
endif()
if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "${what}:\n  ${report}")
endif()
message(STATUS "${CHECK} link check: ${checked} objects clean")
