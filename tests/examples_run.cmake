# CTest script: each example program runs to exit code 0. Registered as the
# `examples_run` test in examples/CMakeLists.txt:
#
#   cmake "-DEXAMPLES=PATH|PATH|..." -P examples_run.cmake

if(NOT DEFINED EXAMPLES)
  message(FATAL_ERROR "examples_run: EXAMPLES not set")
endif()

string(REPLACE "|" ";" programs "${EXAMPLES}")
foreach(program IN LISTS programs)
  execute_process(COMMAND ${program}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${program}: exit ${rc}, expected 0\n${out}${err}")
  endif()
  message(STATUS "${program}: exit 0")
endforeach()
