# CTest script: hsis_cli rejects malformed input — a design, or a numeric
# flag value — with "error: MESSAGE" on stderr and exit code 2 (no abort,
# no silent acceptance). Registered as
# the `cli_input_errors` test in tests/CMakeLists.txt:
#
#   cmake -DHSIS_CLI=... -DWORK_DIR=... -P cli_input_errors.cmake

foreach(var HSIS_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_input_errors: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/empty.pif "")
# A reg declaration with no ';'.
file(WRITE ${WORK_DIR}/no_semicolon.v "module m;\n  wire clk;\n  reg x\nendmodule\n")
# A BLIF-MV file cut off after `.table x`.
file(WRITE ${WORK_DIR}/truncated.mv ".model m\n.table x\n")

function(expect_error expected)
  execute_process(COMMAND ${HSIS_CLI} --ledger none ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "hsis_cli ${ARGN}: exit ${rc}, expected 2\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "hsis_cli ${ARGN}: stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_error("error: vl2mv parse error (line 4): ';' after declaration"
             ${WORK_DIR}/no_semicolon.v ${WORK_DIR}/empty.pif)
expect_error("error: blifmv parse error (line 2): model m has no .end"
             --blifmv ${WORK_DIR}/truncated.mv ${WORK_DIR}/empty.pif)
# A numeric flag that is not a number: hsis_cli's own --jobs and a shared
# obs flag. Neither may fall back to a default (one worker, no timeout).
expect_error("error: --jobs needs a number, got 'two'"
             --jobs two --model philos)
expect_error("error: --timeout-s needs a number, got 'soon'"
             --timeout-s soon --model philos)
