# Runs a CLI with bad input and passes only if it exits with status 2
# and prints a stderr message matching EXPECT (a regex):
#
#   cmake -DEXE=path/to/simulate "-DARGS=--router;Nope"
#         "-DEXPECT=simulate: unknown router" -P expect_usage_error.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
