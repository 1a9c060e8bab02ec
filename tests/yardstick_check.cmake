# Fails when certkit's own yardstick gets worse: the functions over CC 10,
# the multi-exit functions, the explicit casts and the mutable globals that
# `certkit functions` and `certkit assess` find in the repository's src/
# (ROADMAP aim 2). The ceilings are the counts at the last change that moved
# them; a change that lowers a count lowers its ceiling with it.
#
#   cmake -DCERTKIT=<certkit> -DSRC=<src dir> -P yardstick_check.cmake
set(max_cc_over_10 48)
set(max_multi_exit 191)
set(max_explicit_casts 527)
set(max_mutable_globals 38)

execute_process(COMMAND ${CERTKIT} functions ${SRC}
                OUTPUT_VARIABLE functions RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "certkit functions exited with ${status}")
endif()
# Each CSV row ends in cc,nloc,params,returns,tokens,mi.
string(REGEX MATCHALL
       ",(1[1-9]|[2-9][0-9]|[1-9][0-9][0-9]+),[0-9]+,[0-9]+,[0-9]+,[0-9]+,[0-9.]+\n"
       cc_rows "${functions}\n")
string(REGEX MATCHALL
       ",[0-9]+,[0-9]+,[0-9]+,([2-9]|[1-9][0-9]+),[0-9]+,[0-9.]+\n"
       exit_rows "${functions}\n")
list(LENGTH cc_rows cc_over_10)
list(LENGTH exit_rows multi_exit)

# `assess` exits 2 when it finds ASIL gaps, which is its finding, not a
# failure.
execute_process(COMMAND ${CERTKIT} assess ${SRC}
                OUTPUT_VARIABLE assessment RESULT_VARIABLE status)
if(NOT (status EQUAL 0 OR status EQUAL 2))
  message(FATAL_ERROR "certkit assess exited with ${status}")
endif()
string(REGEX MATCH "([0-9]+) explicit casts" match "${assessment}")
set(explicit_casts "${CMAKE_MATCH_1}")
string(REGEX MATCH "([0-9]+) mutable globals" match "${assessment}")
set(mutable_globals "${CMAKE_MATCH_1}")

set(worse "")
foreach(count cc_over_10 multi_exit explicit_casts mutable_globals)
  if("${${count}}" STREQUAL "")
    message(FATAL_ERROR "no ${count} count in certkit's output")
  endif()
  message(STATUS "${count}: ${${count}} (ceiling ${max_${count}})")
  if(${count} GREATER max_${count})
    string(APPEND worse " ${count} ${${count}} > ${max_${count}};")
  endif()
endforeach()
if(worse)
  message(FATAL_ERROR "the yardstick got worse:${worse}")
endif()
