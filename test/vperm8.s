; An 8-lane permutation: the machine stops on an illegal instruction
; without an accelerator (-m baseline) and on one whose width the
; pattern does not divide (-m native:4).
.text
main:
    mov r1, #3
    vadd v2, v2, v1
    vperm.reverse.8 v1, v2
    add r1, r1, #1
    halt
