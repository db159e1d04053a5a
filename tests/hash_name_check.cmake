# Fails if a file under src/ or bench/ other than src/common/hash.h names
# std::unordered_map or std::unordered_set. A hash table's iteration order
# follows its buckets, not its keys, so the tree's hash containers are
# common::HashMap and common::HashSet, which cannot be iterated
# (DESIGN.md §11); a table that is walked is a std::map or std::set.
#
#   cmake -DROOT=<source dir> -P hash_name_check.cmake

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<source dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE files LIST_DIRECTORIES false "${ROOT}/src/*" "${ROOT}/bench/*")
set(report "")
set(checked 0)
foreach(file IN LISTS files)
  if(file STREQUAL "${ROOT}/src/common/hash.h")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  file(STRINGS "${file}" lines REGEX "unordered_(map|set)")
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    string(APPEND report "\n  ${file}: ${line}")
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no files under ${ROOT}/src or ${ROOT}/bench")
endif()
if(report)
  message(FATAL_ERROR
          "std hash containers outside src/common/hash.h (use "
          "common::HashMap or common::HashSet, or std::map to iterate):"
          "${report}")
endif()
message(STATUS "hash name check: ${checked} files clean")
