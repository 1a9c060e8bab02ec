# Fails if any library on the tick path contains a fused multiply-add.
#
#   cmake -DOBJDUMP=<objdump> -DLIBS=<lib;lib;...> -P no_fma_check.cmake
#
# GCC contracts `a * b + c` into vfmadd/vfmsub/vfnmadd/vfnmsub under any
# target that enables FMA, and its "avx512f" target does. The tick-path
# libraries build with -ffp-contract=off so their AVX-512 float loops round
# like the baseline ones; this check catches a library that loses the flag.
foreach(lib IN LISTS LIBS)
  execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${lib}
                  OUTPUT_VARIABLE listing RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "objdump failed on ${lib}")
  endif()
  string(REGEX MATCHALL "\tvfn?m(add|sub)[a-z0-9]*" hits "${listing}")
  list(LENGTH hits count)
  if(count GREATER 0)
    list(REMOVE_DUPLICATES hits)
    message(FATAL_ERROR "${count} FMA instructions in ${lib}: ${hits}")
  endif()
  message(STATUS "no FMA in ${lib}")
endforeach()
