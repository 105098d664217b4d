# ctest helper: run CMD (a shell-style string) and fail unless the exit
# code equals EXPECTED and, when STDERR_MATCH is given, stderr matches
# that regex. Used to pin the CLI exit-code contracts of the tools
# (0 ok, 1 regression/bad input, 2 usage), which gtest cannot exercise
# portably.
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "expect_exit.cmake needs -DCMD=... and -DEXPECTED=...")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "command: ${CMD}\nexpected exit ${EXPECTED}, got: ${rc}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED STDERR_MATCH AND NOT err MATCHES "${STDERR_MATCH}")
  message(FATAL_ERROR
    "command: ${CMD}\nstderr does not match '${STDERR_MATCH}'\n"
    "stderr:\n${err}")
endif()
