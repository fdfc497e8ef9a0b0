; A four-element sum: the smallest program `liquid_cli exec` runs.
.text
main:
    mov r1, #0
loop:
    ld r2, [xs + r1 lsl 2]
    add r3, r3, r2
    add r1, r1, #1
    cmp r1, #4
    blt loop
    st [sum], r3
    halt
.data
xs: .word 10 20 30 40
sum: .word[1]
