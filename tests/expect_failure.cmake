# Run a command that must be refused: it has to exit non-zero AND print a
# message matching EXPECT (stdout and stderr together). A bare
# PASS_REGULAR_EXPRESSION would ignore the exit status, so a program that
# printed the message but went on to exit 0 would still pass.
#
#   cmake -DEXPECT=<regex> -P expect_failure.cmake -- <program> [args...]
#
# Everything after `--` is the command, one argument each.
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_failure.cmake: -DEXPECT=<regex> is required")
endif()
set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_failure.cmake: no command after --")
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit status, got 0")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit status ${status}, but the output does not match: ${EXPECT}")
endif()
