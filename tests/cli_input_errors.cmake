# CTest script: hsis_cli, hsis_report and hsis_client reject malformed
# input — a design, a numeric flag value, an unwritable --stats-json or
# --profile-out path or an unknown flag — with a message on stderr and exit
# code 2 (no abort, no silent acceptance). Registered as the
# `cli_input_errors` test in tests/CMakeLists.txt:
#
#   cmake -DHSIS_CLI=... -DHSIS_REPORT=... -DHSIS_CLIENT=... -DWORK_DIR=...
#         -P cli_input_errors.cmake

foreach(var HSIS_CLI HSIS_REPORT HSIS_CLIENT WORK_DIR)
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
file(REMOVE_RECURSE ${WORK_DIR}/missing)
set(CLI ${HSIS_CLI} --ledger none)

# Run the command line ARGN; require exit 2 and `expected` on stderr.
function(expect_error expected)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  list(JOIN ARGN " " cmd)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${cmd}: exit ${rc}, expected 2\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${cmd}: stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_error("error: vl2mv parse error (line 4): ';' after declaration"
             ${CLI} ${WORK_DIR}/no_semicolon.v ${WORK_DIR}/empty.pif)
expect_error("error: blifmv parse error (line 2): model m has no .end"
             ${CLI} --blifmv ${WORK_DIR}/truncated.mv ${WORK_DIR}/empty.pif)
# A numeric flag that is not a number: hsis_cli's own --jobs and a shared
# obs flag. Neither may fall back to a default (one worker, no timeout).
expect_error("error: --jobs needs a number, got 'two'"
             ${CLI} --jobs two --model philos)
expect_error("error: --timeout-s needs a number, got 'soon'"
             ${CLI} --timeout-s soon --model philos)
# The tools read their numeric flags the same way, before any I/O.
expect_error("error: --limit needs a number, got 'abc'"
             ${HSIS_REPORT} --ledger ${WORK_DIR}/missing/ledger.jsonl
             list --limit abc)
expect_error("error: --count needs a number, got 'x'"
             ${HSIS_CLIENT} --socket /nonexistent top --count x)
# A --stats-json path that cannot be written fails before any work, not
# with a note at exit.
expect_error("error: --stats-json: cannot write ${WORK_DIR}/missing/x.json"
             ${CLI} --model pingpong --stats-json ${WORK_DIR}/missing/x.json)
# So does a --profile-out base under a regular file, where the census
# series cannot be opened.
expect_error("error: --profile-out: cannot write ${WORK_DIR}/empty.pif/p.census.jsonl"
             ${CLI} --model pingpong --profile-out ${WORK_DIR}/empty.pif/p)
# A flag no driver knows is a usage error.
expect_error("usage: hsis_cli" ${CLI} --heartbeat 500 --model philos)
expect_error("usage: hsis_cli" ${CLI} --profile-interval-ms 5 --model philos)
